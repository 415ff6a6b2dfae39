package push

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"evop/internal/metrics"
)

// newMeteredHub builds a hub whose instruments live in a fresh registry,
// so tests read its counters the way /metrics does.
func newMeteredHub() (*Hub[int], *metrics.Registry) {
	reg := metrics.NewRegistry(nil)
	return NewHub[int](reg, "test"), reg
}

// newHub builds a hub with private, unregistered instruments.
func newHub[T any]() *Hub[T] { return NewHub[T](nil, "") }

// hubTotal sums a per-shard hub series across shards.
func hubTotal(reg *metrics.Registry, name string) float64 {
	var n float64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == name {
			n += m.Value
		}
	}
	return n
}

func TestTopicRouting(t *testing.T) {
	h := newHub[int]()
	a, err := h.Subscribe(8, TopicSensor("lvl-1"))
	if err != nil {
		t.Fatalf("Subscribe a: %v", err)
	}
	b, err := h.Subscribe(8, TopicSensor("lvl-2"))
	if err != nil {
		t.Fatalf("Subscribe b: %v", err)
	}
	all, err := h.Subscribe(8, TopicAllSensors)
	if err != nil {
		t.Fatalf("Subscribe all: %v", err)
	}
	n := h.Publish(7, TopicSensor("lvl-1"), TopicAllSensors)
	if n != 2 {
		t.Fatalf("Publish delivered to %d subscribers, want 2", n)
	}
	if got := <-a.C(); got != 7 {
		t.Fatalf("a got %d", got)
	}
	if got := <-all.C(); got != 7 {
		t.Fatalf("all got %d", got)
	}
	select {
	case v := <-b.C():
		t.Fatalf("b got %d for a topic it never watched", v)
	default:
	}
}

func TestMultiTopicPublishDeliversOnce(t *testing.T) {
	h := newHub[int]()
	s, err := h.Subscribe(8, TopicSensor("lvl-1"), TopicCatchment("morland"), TopicAllSensors)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// The event lands on all three watched topics but must arrive once.
	if n := h.Publish(42, TopicSensor("lvl-1"), TopicCatchment("morland"), TopicAllSensors); n != 1 {
		t.Fatalf("Publish delivered %d times, want 1", n)
	}
	if got := <-s.C(); got != 42 {
		t.Fatalf("got %d", got)
	}
	select {
	case v := <-s.C():
		t.Fatalf("duplicate delivery %d", v)
	default:
	}
}

func TestCoalescingNewestWins(t *testing.T) {
	h, reg := newMeteredHub()
	s, err := h.Subscribe(4, "t")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for i := 1; i <= 20; i++ {
		h.Publish(i, "t")
	}
	var got []int
	for {
		select {
		case v := <-s.C():
			got = append(got, v)
			continue
		default:
		}
		break
	}
	if len(got) != 4 {
		t.Fatalf("drained %d events, want 4 (queue capacity)", len(got))
	}
	if got[len(got)-1] != 20 {
		t.Fatalf("newest event = %d, want 20", got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if s.Dropped() != 16 {
		t.Fatalf("Dropped = %d, want 16", s.Dropped())
	}
	published, delivered := hubTotal(reg, "evop_push_published_total"), hubTotal(reg, "evop_push_delivered_total")
	if coalesced := hubTotal(reg, "evop_push_coalesced_total"); coalesced != 16 || delivered != 20 || published != 20 {
		t.Fatalf("published/delivered/coalesced = %v/%v/%v, want 20/20/16", published, delivered, coalesced)
	}
}

func TestCancelStopsDeliveryAndClosesChannel(t *testing.T) {
	h, reg := newMeteredHub()
	s, err := h.Subscribe(4, "t")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	h.Publish(1, "t")
	s.Cancel()
	s.Cancel() // idempotent
	if n := h.Publish(2, "t"); n != 0 {
		t.Fatalf("publish after Cancel delivered to %d", n)
	}
	// The buffered event is still readable, then the channel closes.
	if v, ok := <-s.C(); !ok || v != 1 {
		t.Fatalf("buffered read = %d, %v", v, ok)
	}
	if _, ok := <-s.C(); ok {
		t.Fatal("channel not closed after Cancel")
	}
	if h.Subscribers() != 0 {
		t.Fatalf("Subscribers = %d after Cancel", h.Subscribers())
	}
	if r, tp := hubTotal(reg, "evop_push_registrations"), hubTotal(reg, "evop_push_topics"); r != 0 || tp != 0 {
		t.Fatalf("registry not empty after Cancel: %v registrations, %v topics", r, tp)
	}
}

func TestCloseAll(t *testing.T) {
	h := newHub[string]()
	subs := make([]*Subscription[string], 0, 5)
	for i := 0; i < 5; i++ {
		s, err := h.Subscribe(2, fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatalf("Subscribe %d: %v", i, err)
		}
		subs = append(subs, s)
	}
	h.Publish("last", "t0")
	h.CloseAll()
	// Buffered events survive the close; then every channel is closed.
	if v, ok := <-subs[0].C(); !ok || v != "last" {
		t.Fatalf("buffered read = %q, %v", v, ok)
	}
	for i, s := range subs {
		if _, ok := <-s.C(); ok {
			t.Fatalf("sub %d channel not closed after CloseAll", i)
		}
	}
	if h.Subscribers() != 0 {
		t.Fatalf("Subscribers = %d after CloseAll", h.Subscribers())
	}
	if n := h.Publish("late", "t0"); n != 0 {
		t.Fatalf("publish on closed hub delivered to %d", n)
	}
	if _, err := h.Subscribe(2, "t9"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe on closed hub err = %v, want ErrClosed", err)
	}
}

func TestSubscribeValidation(t *testing.T) {
	h := newHub[int]()
	if _, err := h.Subscribe(4); !errors.Is(err, ErrBadSubscription) {
		t.Fatalf("no-topic err = %v", err)
	}
	if _, err := h.Subscribe(4, ""); !errors.Is(err, ErrBadSubscription) {
		t.Fatalf("empty-topic err = %v", err)
	}
	s, err := h.Subscribe(0, "t") // non-positive queue selects the default
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if cap(s.ch) != DefaultQueue {
		t.Fatalf("default queue cap = %d, want %d", cap(s.ch), DefaultQueue)
	}
	want := []string{"t"}
	if got := s.topics; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("topics = %v", got)
	}
}

func TestShardStriping(t *testing.T) {
	h, reg := newMeteredHub()
	if len(h.shards) != DefaultShards {
		t.Fatalf("shards = %d, want %d", len(h.shards), DefaultShards)
	}
	// Many topics must spread across more than one stripe.
	for i := 0; i < 64; i++ {
		if _, err := h.Subscribe(1, TopicSensor(fmt.Sprintf("s-%d", i))); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}
	nonEmpty := 0
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "evop_push_topics" && m.Value > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("64 topics landed on %d shard(s); striping broken", nonEmpty)
	}
}

// TestNewestAlwaysDelivered pins the coalescing guarantee under a
// consumer that drains concurrently with the publisher: whatever was
// dropped, the final published value must be the last one readable.
func TestNewestAlwaysDelivered(t *testing.T) {
	h := newHub[int]()
	s, err := h.Subscribe(4, "t")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	const total = 10000
	var wg sync.WaitGroup
	wg.Add(1)
	var last int
	var got int
	go func() {
		defer wg.Done()
		for v := range s.C() {
			if v <= last {
				t.Errorf("out of order: %d after %d", v, last)
				return
			}
			last = v
			got++
		}
	}()
	for i := 1; i <= total; i++ {
		h.Publish(i, "t")
	}
	s.Cancel()
	wg.Wait()
	if last != total {
		t.Fatalf("last delivered = %d, want %d (newest must never be lost)", last, total)
	}
	if uint64(got)+s.Dropped() != total {
		t.Fatalf("delivered %d + dropped %d != published %d", got, s.Dropped(), total)
	}
}

// TestChurn10kSubscribers subjects the hub to 10k subscribers joining,
// receiving and leaving while publishers hammer their topics — the
// race-detector regression for the sharded registry.
func TestChurn10kSubscribers(t *testing.T) {
	const (
		workers    = 8
		perWorker  = 1250 // 8 × 1250 = 10k subscriptions over the test
		topicCount = 32
	)
	h, reg := newMeteredHub()
	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	for p := 0; p < 4; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				topic := fmt.Sprintf("t%d", (p*7+i)%topicCount)
				h.Publish(i, topic, TopicAllSensors)
				i++
			}
		}(p)
	}
	var subWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		subWG.Add(1)
		go func(w int) {
			defer subWG.Done()
			for i := 0; i < perWorker; i++ {
				topic := fmt.Sprintf("t%d", (w*13+i)%topicCount)
				s, err := h.Subscribe(2, topic, TopicAllSensors)
				if err != nil {
					t.Errorf("Subscribe: %v", err)
					return
				}
				if i == 0 {
					// Every publish reaches TopicAllSensors. Waiting for
					// one event makes the churn overlap publishing on any
					// schedule: at GOMAXPROCS 1 a worker can otherwise run
					// all its subscriptions before a publisher runs.
					<-s.C()
				}
				// Consume whatever is queued right now, then leave.
				for drained := false; !drained; {
					select {
					case <-s.C():
					default:
						drained = true
					}
				}
				s.Cancel()
				// The channel must close promptly after Cancel.
				for range s.C() {
				}
			}
		}(w)
	}
	subWG.Wait()
	close(stop)
	pubWG.Wait()
	if h.Subscribers() != 0 {
		t.Fatalf("Subscribers = %d after churn, want 0", h.Subscribers())
	}
	if r := hubTotal(reg, "evop_push_registrations"); r != 0 {
		t.Fatalf("shards still hold %v registrations", r)
	}
	if d := hubTotal(reg, "evop_push_delivered_total"); d < workers {
		t.Fatalf("churn delivered %v events, want at least one per worker (%d); publishers never reached subscribers", d, workers)
	}
}

// BenchmarkPushFanout measures one publisher fanning an event out to
// 10k subscribers of a single topic (the acceptance workload).
func BenchmarkPushFanout(b *testing.B) {
	h := newHub[int]()
	const subscribers = 10000
	for i := 0; i < subscribers; i++ {
		if _, err := h.Subscribe(1, "flood"); err != nil {
			b.Fatalf("Subscribe: %v", err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := h.Publish(i, "flood"); n != subscribers {
			b.Fatalf("delivered to %d, want %d", n, subscribers)
		}
	}
	b.ReportMetric(float64(b.N*subscribers)/b.Elapsed().Seconds(), "deliveries/s")
}

// BenchmarkPublishDisjointTopics exercises the lock striping: publishes
// on different topics from parallel goroutines should not contend.
func BenchmarkPublishDisjointTopics(b *testing.B) {
	h := newHub[int]()
	const topics = 64
	for i := 0; i < topics; i++ {
		if _, err := h.Subscribe(1, TopicSensor(fmt.Sprintf("s%d", i))); err != nil {
			b.Fatalf("Subscribe: %v", err)
		}
	}
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		topic := TopicSensor(fmt.Sprintf("s%d", int(next.Add(1)-1)%topics))
		i := 0
		for pb.Next() {
			h.Publish(i, topic)
			i++
		}
	})
}
