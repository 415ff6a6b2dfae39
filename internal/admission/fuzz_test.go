package admission

import (
	"testing"
	"time"

	"evop/internal/clock"
)

// FuzzTokenBucket drives one controller's client buckets with an
// arbitrary interleaving of clock advances and requests from a handful
// of clients, checking the bucket invariants after every operation:
// tokens never go negative, never exceed the burst, and the client
// table never outgrows its LRU bound. The first bytes set each client's
// starting tokens, so a short input can empty a bucket.
func FuzzTokenBucket(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{10, 10, 10, 0, 200, 0, 7, 7, 7, 7})
	f.Add([]byte{255, 254, 253, 1, 1, 1, 128, 64, 32})
	f.Add([]byte{8, 16, 0, 0, 0, 255, 1, 1, 1, 1, 2, 2, 3, 255, 255, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		clk := clock.NewSimulated(testStart)
		c := New(clk, nil)
		clients := [6]string{"a", "b", "c", "d", "e", "f"}
		// Byte n starts a bucket at n/8 tokens; 255 starts it full.
		for i := 0; i < len(clients) && i < len(data); i++ {
			tokens := float64(data[i]) / 8
			if data[i] == 255 {
				tokens = burst
			}
			c.setTokens(t, clients[i], tokens)
		}
		for _, op := range data[min(len(data), len(clients)):] {
			switch op % 3 {
			case 0:
				// Irregular advances exercise fractional refill.
				clk.Advance(time.Duration(op) * 37 * time.Millisecond)
			default:
				c.AllowRate(Live, clients[int(op)%len(clients)]) //nolint:errcheck
			}
			c.mu.Lock()
			if c.lru.Len() > maxClients {
				c.mu.Unlock()
				t.Fatalf("client table grew to %d past bound %d", c.lru.Len(), maxClients)
			}
			for e := c.lru.Front(); e != nil; e = e.Next() {
				b := e.Value.(*bucket)
				if b.tokens < 0 {
					c.mu.Unlock()
					t.Fatalf("client %q tokens went negative: %v", b.key, b.tokens)
				}
				if b.tokens > burst {
					c.mu.Unlock()
					t.Fatalf("client %q tokens %v exceed burst %v", b.key, b.tokens, burst)
				}
			}
			c.mu.Unlock()
		}
	})
}
