package portal

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// requests and async WPS executions before cutting them off.
const shutdownGrace = 15 * time.Second

// ListenAndServeContext runs the portal on addr until ctx is canceled,
// then shuts down gracefully (see ServeContext); cmd/evop-portal runs it
// under a signal-bound context.
func (p *Portal) ListenAndServeContext(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("portal listen: %w", err)
	}
	return p.ServeContext(ctx, ln)
}

// ServeContext serves on ln until ctx is canceled, then shuts down
// gracefully: stop accepting, let in-flight requests finish, drain async
// WPS executions, and stop the observatory's background loops — all
// bounded by shutdownGrace. The server's base context is deliberately
// NOT ctx: canceling the trigger must not cancel requests already being
// served; they get the grace period.
func (p *Portal) ServeContext(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           p,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return fmt.Errorf("portal server: %w", err)
	case <-ctx.Done():
	}
	p.logger.Printf("portal: shutting down (%v)", context.Cause(ctx))
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	if derr := p.obs.Shutdown(shutCtx); err == nil {
		err = derr
	}
	// Live sockets are hijacked, so srv.Shutdown no longer tracks them.
	// The observatory shutdown above closed their hub subscriptions;
	// give each handler until the grace deadline to write its
	// going-away close frame before the process exits.
	liveDone := make(chan struct{})
	go func() { p.liveWG.Wait(); close(liveDone) }()
	select {
	case <-liveDone:
	case <-shutCtx.Done():
	}
	if err != nil {
		return fmt.Errorf("portal shutdown: %w", err)
	}
	p.logger.Printf("portal: shutdown complete")
	return nil
}
