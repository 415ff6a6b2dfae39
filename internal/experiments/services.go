package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"evop/internal/broker"
	"evop/internal/clock"
	"evop/internal/cloud"
	"evop/internal/rest"
	"evop/internal/ws"
)

// E3RESTvsStateful reproduces Section IV-B's argument for stateless
// services: throughput across replicas and graceful failover, REST vs a
// transaction-oriented (SOAP-style) comparator.
func E3RESTvsStateful() (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Stateless REST vs stateful transactions: scaling and failover",
		Columns: []string{
			"service", "replicas", "sequencesOK", "failoverOK", "wallTime",
		},
		Notes: []string{
			"each sequence is 8 dependent steps; mid-sequence the client is redirected to another replica",
			"REST sequences survive redirection (client carries state); stateful ones are lost",
		},
	}
	const sequences = 200
	const steps = 8

	// Stateless: two replicas, redirect mid-sequence.
	a := httptest.NewServer(rest.StatelessCompute{})
	b := httptest.NewServer(rest.StatelessCompute{})
	defer a.Close()
	defer b.Close()
	start := time.Now()
	okStateless := 0
	for seq := 0; seq < sequences; seq++ {
		vals := make([]string, 0, steps)
		var last float64
		ok := true
		for s := 0; s < steps; s++ {
			vals = append(vals, strconv.Itoa(s+1))
			srv := a
			if s >= steps/2 { // "failover" to the other replica
				srv = b
			}
			resp, err := http.Post(srv.URL+"/sum?vs="+strings.Join(vals, ","), "application/json", nil)
			if err != nil {
				ok = false
				break
			}
			var out map[string]float64
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				ok = false
				break
			}
			last = out["result"]
		}
		if ok && last == float64(steps*(steps+1)/2) {
			okStateless++
		}
	}
	statelessTime := time.Since(start)
	t.Rows = append(t.Rows, []string{
		"stateless REST", "2",
		fmt.Sprintf("%d/%d", okStateless, sequences),
		"yes", statelessTime.Round(time.Millisecond).String(),
	})

	// Stateful: transactions opened on replica A die when the client is
	// redirected to replica B.
	sa := httptest.NewServer(rest.NewStatefulService())
	sb := httptest.NewServer(rest.NewStatefulService())
	defer sa.Close()
	defer sb.Close()
	start = time.Now()
	okStateful := 0
	for seq := 0; seq < sequences; seq++ {
		resp, err := http.Post(sa.URL+"/begin", "application/json", nil)
		if err != nil {
			continue
		}
		var began map[string]string
		err = json.NewDecoder(resp.Body).Decode(&began)
		resp.Body.Close()
		if err != nil {
			continue
		}
		txn := began["txn"]
		ok := true
		for s := 0; s < steps; s++ {
			srv := sa
			if s >= steps/2 {
				srv = sb // redirected mid-transaction
			}
			resp, err := http.Post(srv.URL+"/step?txn="+txn+"&v=1", "application/json", nil)
			if err != nil || resp.StatusCode != http.StatusOK {
				ok = false
			}
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if !ok {
				break
			}
		}
		if ok {
			okStateful++
		}
	}
	statefulTime := time.Since(start)
	t.Rows = append(t.Rows, []string{
		"stateful transactions", "2",
		fmt.Sprintf("%d/%d", okStateful, sequences),
		"no (state lost)", statefulTime.Round(time.Millisecond).String(),
	})

	if okStateless != sequences {
		return nil, fmt.Errorf("stateless sequences failed (%d/%d): %w", okStateless, sequences, ErrExperiment)
	}
	if okStateful != 0 {
		return nil, fmt.Errorf("stateful sequences survived failover (%d) — comparator broken: %w", okStateful, ErrExperiment)
	}
	return t, nil
}

// E6PushVsPoll reproduces Section IV-D's WebSocket argument: wire cost
// and staleness of push vs periodic polling for the same session-update
// stream.
func E6PushVsPoll() (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "Session updates: WebSocket push vs HTTP polling (10 updates over 5 min)",
		Columns: []string{
			"method", "requests", "bytesOnWire", "meanStaleness",
		},
		Notes: []string{
			"push sends exactly one message per update; polling costs requests whether or not anything changed",
			"staleness: delay between an update occurring and the client observing it",
		},
	}

	// A broker whose session migrates 10 times over 5 simulated minutes.
	clk := clock.NewSimulated(epoch)
	brk, err := broker.New(clk, nil)
	if err != nil {
		return nil, fmt.Errorf("building broker: %w", err)
	}
	provider, err := cloud.NewProvider(cloud.Config{
		Name: "p", Kind: cloud.Private, MaxInstances: 4,
		BootDelay: time.Second, AddrPrefix: "10.0.0.", Clock: clk,
	})
	if err != nil {
		return nil, fmt.Errorf("building provider: %w", err)
	}
	img := cloud.Image{ID: "svc", Kind: cloud.Streamlined, Services: []string{"topmodel"}}
	instA, err := provider.Launch(img, cloud.DefaultFlavor())
	if err != nil {
		return nil, err
	}
	instB, err := provider.Launch(img, cloud.DefaultFlavor())
	if err != nil {
		return nil, err
	}
	clk.Advance(2 * time.Second)

	const updates = 10
	const window = 5 * time.Minute
	updateGap := window / updates

	// --- WebSocket push ---
	s, err := brk.Connect("pushUser", "topmodel")
	if err != nil {
		return nil, err
	}
	if err := brk.Migrate(s.ID, instA, "init"); err != nil {
		return nil, err
	}
	updatesCh, err := brk.Subscribe(s.ID)
	if err != nil {
		return nil, err
	}
	// Serve the session channel over a real WebSocket.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := ws.Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close(ws.CloseNormal, "")
		for u := range updatesCh {
			payload, err := json.Marshal(u.Session)
			if err != nil {
				return
			}
			if err := conn.WriteMessage(ws.OpText, payload); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	conn, err := ws.Dial("ws" + strings.TrimPrefix(srv.URL, "http"))
	if err != nil {
		return nil, fmt.Errorf("dialling push socket: %w", err)
	}
	defer conn.Close(ws.CloseNormal, "")

	for i := 0; i < updates; i++ {
		clk.Advance(updateGap)
		target := instA
		if i%2 == 0 {
			target = instB
		}
		if err := brk.Migrate(s.ID, target, "rebalance"); err != nil {
			return nil, err
		}
	}
	// Read all pushed messages.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < updates; i++ {
		if _, err := conn.ReadMessage(); err != nil {
			return nil, fmt.Errorf("reading push %d: %w", i, err)
		}
	}
	pushStats := conn.Stats()
	t.Rows = append(t.Rows, []string{
		"WebSocket push",
		strconv.Itoa(int(pushStats.MsgsRead)),
		strconv.FormatUint(pushStats.BytesRead, 10),
		"~0s (event-driven)",
	})

	// --- HTTP polling at two periods ---
	for _, period := range []time.Duration{5 * time.Second, 30 * time.Second} {
		s2, err := brk.Connect("pollUser", "topmodel")
		if err != nil {
			return nil, err
		}
		if err := brk.Migrate(s2.ID, instA, "init"); err != nil {
			return nil, err
		}
		pollSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			snap, err := brk.Session(s2.ID)
			if err != nil {
				rest.WriteError(w, http.StatusNotFound, err.Error())
				return
			}
			rest.WriteJSON(w, http.StatusOK, snap)
		}))
		// Poll across the window while migrations happen on schedule.
		polls := 0
		var bytesOnWire uint64
		lastChange := map[int]time.Duration{}
		migrated := 0
		for elapsed := time.Duration(0); elapsed < window; elapsed += period {
			clk.Advance(period)
			// Fire any migrations due in this interval.
			for migrated < updates && time.Duration(migrated+1)*updateGap <= elapsed+period {
				target := instA
				if migrated%2 == 0 {
					target = instB
				}
				if err := brk.Migrate(s2.ID, target, "rebalance"); err != nil {
					return nil, err
				}
				// Staleness: observed at the *next* poll.
				lastChange[migrated] = elapsed + period - time.Duration(migrated+1)*updateGap
				migrated++
			}
			resp, err := http.Get(pollSrv.URL)
			if err != nil {
				pollSrv.Close()
				return nil, fmt.Errorf("poll: %w", err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			polls++
			bytesOnWire += uint64(len(body)) + 200 // body + approximate headers
		}
		pollSrv.Close()
		var totalStale time.Duration
		for _, d := range lastChange {
			totalStale += d
		}
		mean := time.Duration(0)
		if len(lastChange) > 0 {
			mean = totalStale / time.Duration(len(lastChange))
		}
		t.Rows = append(t.Rows, []string{
			"poll every " + period.String(),
			strconv.Itoa(polls),
			strconv.FormatUint(bytesOnWire, 10),
			mean.Round(time.Second).String(),
		})
	}
	return t, nil
}
