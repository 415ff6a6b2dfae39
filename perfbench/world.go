package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"evop/internal/broker"
	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/core"
	"evop/internal/portal"
	"evop/internal/push"
	"evop/internal/sensor"
)

// world is one freshly built observatory and portal on a simulated
// clock, with its 30-day history already behind it.
type world struct {
	clk    *clock.Simulated
	obs    *core.Observatory
	portal *portal.Portal
	subs   []*push.Subscription[sensor.Reading]

	setup    time.Duration // whole build, backfill included
	backfill time.Duration // the 30-day clock advance alone

	ticks                  int // LB ticks at the last cloud sample
	publicPeak, activePeak int
}

// hubTopics are the in-process live subscriptions sensor_ingest keeps
// open, with their queue sizes: one firehose, two catchment feeds and
// one single-sensor feed.
var hubTopics = []struct {
	topic string
	queue int
}{
	{"sensors", 4},
	{"catchment/morland", 4},
	{"catchment/machynlleth", 8},
	{"sensor/tarland-level-1", 2},
}

// newWorld builds the observatory with its default configuration, starts
// its loops and runs the clock through the backfill: sensors sample and
// the load balancer ticks over an idle cluster.
func newWorld(subscribe bool) (*world, error) {
	start := time.Now()
	clk := clock.NewSimulated(simStart)
	obs, err := core.New(core.DefaultConfig(clk))
	if err != nil {
		return nil, fmt.Errorf("building observatory: %w", err)
	}
	p, err := portal.New(obs)
	if err != nil {
		obs.Stop()
		return nil, fmt.Errorf("building portal: %w", err)
	}
	w := &world{clk: clk, obs: obs, portal: p}
	obs.Start()
	fill := time.Now()
	clk.Advance(backfill)
	w.backfill = time.Since(fill)
	if subscribe {
		for _, h := range hubTopics {
			sub, err := obs.Network.SubscribeTopics(h.queue, h.topic)
			if err != nil {
				obs.Stop()
				return nil, fmt.Errorf("subscribing to %s: %w", h.topic, err)
			}
			w.subs = append(w.subs, sub)
		}
	}
	w.setup = time.Since(start)
	return w, nil
}

// stop halts the observatory's loops and closes its subscriptions.
func (w *world) stop() { w.obs.Stop() }

// advance moves the simulated clock and, when the load balancer ticked,
// samples the cloud state the checks and per-layer metrics need.
func (w *world) advance(to time.Time) {
	w.clk.AdvanceTo(to)
	if ticks := w.obs.LB.Ticks(); ticks != w.ticks {
		w.ticks = ticks
		w.sampleCloud()
	}
}

func (w *world) sampleCloud() {
	public := 0
	for _, in := range w.obs.Multi.Instances() {
		if in.Kind() == cloud.Public {
			public++
		}
	}
	if public > w.publicPeak {
		w.publicPeak = public
	}
	active := 0
	for _, s := range w.obs.Broker.Sessions() {
		if s.State == broker.Active {
			active++
		}
	}
	if active > w.activePeak {
		w.activePeak = active
	}
}

// drain empties every subscription without blocking.
func (w *world) drain() {
	for _, sub := range w.subs {
		for more := true; more; {
			select {
			case _, ok := <-sub.C():
				more = ok
			default:
				more = false
			}
		}
	}
}

// recorder is a reusable in-memory ResponseWriter: the portal is driven
// in-process, so no socket or server goroutine sits between the
// benchmark and the measured handler chain.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *recorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

func (r *recorder) reset() {
	clear(r.h)
	r.code = 0
	r.body.Reset()
}
