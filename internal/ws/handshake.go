package ws

import (
	"bufio"
	"crypto/sha1"
	"encoding/base64"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
)

// magicGUID is the fixed GUID of RFC 6455 Section 1.3.
const magicGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// acceptKey computes the Sec-WebSocket-Accept value for a client key.
func acceptKey(clientKey string) string {
	h := sha1.Sum([]byte(clientKey + magicGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// connSeq distinguishes the mask RNG seeds of concurrently-created
// connections.
var connSeq atomic.Int64

// CheckHandshake checks the opening handshake's method and headers, as
// Upgrade does first; on failure it writes the refusal and returns ErrHandshake.
func CheckHandshake(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		return refuse(w, http.StatusMethodNotAllowed, "websocket handshake requires GET")
	}
	if !headerContainsToken(r.Header, "Connection", "upgrade") {
		return refuse(w, http.StatusBadRequest, "missing Connection: Upgrade")
	}
	if !headerContainsToken(r.Header, "Upgrade", "websocket") {
		return refuse(w, http.StatusBadRequest, "missing Upgrade: websocket")
	}
	if v := r.Header.Get("Sec-Websocket-Version"); v != "13" {
		return refuse(w, http.StatusBadRequest, "unsupported websocket version")
	}
	if r.Header.Get("Sec-Websocket-Key") == "" {
		return refuse(w, http.StatusBadRequest, "missing Sec-WebSocket-Key")
	}
	return nil
}

// refuse writes a plain-text HTTP error and returns it as ErrHandshake.
func refuse(w http.ResponseWriter, code int, why string) error {
	http.Error(w, why, code)
	return fmt.Errorf("%s: %w", why, ErrHandshake)
}

// Upgrade performs the server side of the opening handshake on an
// incoming HTTP request and returns the established connection. On
// failure it writes the appropriate HTTP error to w and returns
// ErrHandshake.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if err := CheckHandshake(w, r); err != nil {
		return nil, err
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		return nil, refuse(w, http.StatusInternalServerError, "response writer cannot hijack")
	}
	nc, brw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("hijacking connection: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(r.Header.Get("Sec-Websocket-Key")) + "\r\n\r\n"
	if _, err := brw.WriteString(resp); err != nil {
		nc.Close()
		return nil, fmt.Errorf("writing handshake response: %w", err)
	}
	if err := brw.Flush(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("flushing handshake response: %w", err)
	}
	// Wrap any bytes the client already pipelined.
	conn := newConn(&bufferedConn{Conn: nc, r: brw.Reader}, false, connSeq.Add(1))
	return conn, nil
}

// bufferedConn drains a bufio.Reader before the raw connection.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

func (b *bufferedConn) Read(p []byte) (int, error) { return b.r.Read(p) }

func headerContainsToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// Dial performs the client side of the opening handshake against a
// ws://host:port/path URL and returns the established connection.
func Dial(rawURL string) (*Conn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("parsing url: %w", err)
	}
	if u.Scheme != "ws" {
		return nil, fmt.Errorf("scheme %q (only ws:// supported): %w", u.Scheme, ErrHandshake)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	nc, err := net.Dial("tcp", host)
	if err != nil {
		return nil, fmt.Errorf("dialling %s: %w", host, err)
	}
	conn, err := clientHandshake(nc, u)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return conn, nil
}

func clientHandshake(nc net.Conn, u *url.URL) (*Conn, error) {
	var keyBytes [16]byte
	rand.New(rand.NewSource(connSeq.Add(1) + 0x5eed)).Read(keyBytes[:])
	key := base64.StdEncoding.EncodeToString(keyBytes[:])

	path := u.RequestURI()
	if path == "" {
		path = "/"
	}
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := nc.Write([]byte(req)); err != nil {
		return nil, fmt.Errorf("writing handshake request: %w", err)
	}

	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, fmt.Errorf("reading handshake response: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return nil, fmt.Errorf("status %d: %w", resp.StatusCode, ErrHandshake)
	}
	if got := resp.Header.Get("Sec-Websocket-Accept"); got != acceptKey(key) {
		return nil, fmt.Errorf("bad Sec-WebSocket-Accept: %w", ErrHandshake)
	}
	return newConn(&bufferedConn{Conn: nc, r: br}, true, connSeq.Add(1)), nil
}
