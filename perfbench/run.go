package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"evop/internal/core"
	"evop/internal/metrics"
	"evop/internal/portal"
	"evop/internal/sensor"
)

// runStats is what one pass of the op stream through the portal
// measured. Latencies and chunk figures cover the measured chunks only;
// failures cover every op, warm-up included.
type runStats struct {
	Latencies []float64            // ms, every measured op
	RouteLat  map[string][]float64 // ms, measured ops by route
	ChunkRPS  []float64
	ChunkCPU  []float64     // process CPU µs per op, per chunk
	Elapsed   time.Duration // wall time of the measured chunks

	Attempted, Measured int
	Failures            map[string]int

	Mallocs, AllocBytes uint64 // measured chunks only
	GCCycles            uint32
	GCPause             time.Duration

	Start, WindowStart, WindowEnd metrics.Snapshot

	// Digests, when collected, hold one result digest per op for the
	// traced run to match.
	Digests [][32]byte

	IngestChecks, IngestSuperseded int
	ModelBodiesVerified            int

	PublicPeak, ActivePeak int
	PublicCost             float64
}

func (s *runStats) fail(reason string) { s.Failures[reason]++ }

// Failed counts every failure the run recorded.
func (s *runStats) Failed() int {
	n := 0
	for _, c := range s.Failures {
		n += c
	}
	return n
}

type ingestMark struct {
	at    time.Time
	value float64
}

// modelSample is a model_run response kept for the after-run check that
// the served hydrograph is byte-equal to a direct run of the request.
type modelSample struct {
	req        core.RunRequest
	hydrograph [32]byte // sha256 of the served bytes
}

// modelSampleEvery is how often a model_run response is kept for the
// byte-equality check (the first model_run of a stream always is).
const modelSampleEvery = 40

// runHTTP drives the stream through Portal.ServeHTTP with one closed-loop
// client and checks every answer.
func runHTTP(w *world, s *Stream, collect bool) *runStats {
	st := &runStats{RouteLat: make(map[string][]float64), Failures: make(map[string]int)}
	sids := make(map[int]string)
	ingested := make(map[string]ingestMark)
	var samples []modelSample
	modelRuns := 0
	rec := newRecorder()
	var ms0, ms1 runtime.MemStats

	runKeys := make(map[string]bool)
	runtime.GC()
	st.Start = w.obs.MetricsRegistry().Snapshot()
	cur := s.Open()
	for ci := 0; ; ci++ {
		chunk := cur.Next()
		if chunk == nil {
			break
		}
		measured := ci > 0
		reqs := make([]*http.Request, len(chunk))
		for i := range chunk {
			reqs[i] = chunk[i].Request()
		}
		if ci == 1 {
			runtime.GC()
			st.WindowStart = w.obs.MetricsRegistry().Snapshot()
			runtime.ReadMemStats(&ms1)
			st.GCCycles, st.GCPause = ms1.NumGC, time.Duration(ms1.PauseTotalNs)
		}
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		t0 := time.Now()
		for i := range chunk {
			op := &chunk[i]
			if !op.AdvanceTo.IsZero() {
				w.advance(op.AdvanceTo)
			}
			req := reqs[i]
			if op.Kind == KSessionGet || op.Kind == KDisconnect {
				req.URL.Path = "/sessions/" + sids[op.Visit]
			}
			rec.reset()
			start := time.Now()
			w.portal.ServeHTTP(rec, req)
			lat := time.Since(start)
			st.Attempted++
			if measured {
				ms := float64(lat) / 1e6
				st.Latencies = append(st.Latencies, ms)
				st.RouteLat[op.Kind.Route()] = append(st.RouteLat[op.Kind.Route()], ms)
			}
			if reason := st.check(op, rec, sids, ingested); reason != "" {
				st.fail(reason)
			}
			if op.Kind == KModelRun && rec.status() == http.StatusOK {
				runKeys[op.Body] = true
				if modelRuns%modelSampleEvery == 0 {
					if h, err := hydrographOf(rec.body.Bytes()); err == nil {
						samples = append(samples, modelSample{req: *op.Run, hydrograph: sha256.Sum256(h)})
					} else {
						st.fail("model_run body has no hydrograph")
					}
				}
				modelRuns++
			}
			if collect {
				st.Digests = append(st.Digests, sha256.Sum256([]byte(httpDigest(op, rec))))
			}
			if op.Drain {
				w.drain()
			}
		}
		elapsed := time.Since(t0)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		if measured {
			st.Measured += len(chunk)
			st.Elapsed += elapsed
			st.ChunkRPS = append(st.ChunkRPS, float64(len(chunk))/elapsed.Seconds())
			st.ChunkCPU = append(st.ChunkCPU, float64(cpu.Microseconds())/float64(len(chunk)))
			st.Mallocs += ms1.Mallocs - ms0.Mallocs
			st.AllocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
	}
	st.WindowEnd = w.obs.MetricsRegistry().Snapshot()
	runtime.ReadMemStats(&ms1)
	st.GCCycles = ms1.NumGC - st.GCCycles
	st.GCPause = time.Duration(ms1.PauseTotalNs) - st.GCPause

	st.PublicPeak, st.ActivePeak = w.publicPeak, w.activePeak
	st.PublicCost = w.obs.Public.CostAccrued()
	st.afterRunChecks(w, s.Workload, len(runKeys), samples)
	return st
}

// check validates one answer; it returns the failure reason, or "".
func (st *runStats) check(op *Op, rec *recorder, sids map[int]string, ingested map[string]ingestMark) string {
	if got, want := rec.status(), op.WantStatus(); got != want {
		return fmt.Sprintf("%s answered %d, want %d", op.Kind, got, want)
	}
	if rec.h.Get(portal.DegradedHeader) != "" {
		return op.Kind.String() + " answered degraded"
	}
	body := rec.body.Bytes()
	switch op.Kind {
	case KConnect:
		var s struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &s); err != nil || s.ID == "" {
			return "connect answered no session"
		}
		sids[op.Visit] = s.ID
	case KSOSInsert:
		ingested[op.Sensor] = ingestMark{op.At, op.Value}
	case KLatest, KSeries:
		mark, ok := ingested[op.Sensor]
		if !ok {
			break
		}
		newest, value, err := newestOf(op.Kind, body)
		if err != nil {
			return op.Kind.String() + ": " + err.Error()
		}
		// The read must reflect the last ingest: either it is the
		// newest reading, or a sampler reading taken after it is.
		switch {
		case newest.Equal(mark.at.Truncate(time.Millisecond)) && value == mark.value:
			st.IngestChecks++
		case newest.After(mark.at):
			st.IngestSuperseded++
		default:
			return "ingested value missing from the next read of " + op.Sensor
		}
		delete(ingested, op.Sensor)
	}
	return ""
}

// newestOf extracts the newest reading of a /latest or /series body.
// A series body is scanned from its end for the last [ms,value] pair
// rather than decoded whole, so the check adds little to the run's
// allocation figures.
func newestOf(k Kind, body []byte) (time.Time, float64, error) {
	if k == KLatest {
		var r sensor.Reading
		if err := json.Unmarshal(body, &r); err != nil {
			return time.Time{}, 0, fmt.Errorf("decoding reading: %w", err)
		}
		return r.Time.Truncate(time.Millisecond), r.Value, nil
	}
	body = bytes.TrimSuffix(bytes.TrimSpace(body), []byte("]]"))
	open := bytes.LastIndexByte(body, '[')
	ms, v, ok := bytes.Cut(body[open+1:], []byte(","))
	if open < 0 || !ok {
		return time.Time{}, 0, fmt.Errorf("no pairs in series %.40q", body)
	}
	at, err := strconv.ParseInt(string(ms), 10, 64)
	if err != nil {
		return time.Time{}, 0, fmt.Errorf("series time: %w", err)
	}
	value, err := strconv.ParseFloat(string(v), 64)
	if err != nil {
		return time.Time{}, 0, fmt.Errorf("series value: %w", err)
	}
	return time.UnixMilli(at).UTC(), value, nil
}

func hydrographOf(body []byte) ([]byte, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	h, ok := doc["hydrograph"]
	if !ok {
		return nil, fmt.Errorf("no hydrograph")
	}
	return h, nil
}

// afterRunChecks runs the whole-run checks once the measured window is
// closed, so their own work never lands in a measurement.
func (st *runStats) afterRunChecks(w *world, workload string, runKeys int, samples []modelSample) {
	for _, smp := range samples {
		res, _, err := w.obs.RunModelCached(smp.req)
		if err != nil {
			st.fail("direct model run failed: " + err.Error())
			continue
		}
		flot, err := res.Discharge.FlotJSON()
		if err != nil || sha256.Sum256(flot) != smp.hydrograph {
			st.fail("served hydrograph differs from a direct run")
			continue
		}
		st.ModelBodiesVerified++
	}
	d := delta{st.Start, st.WindowEnd}
	for i := 0; i < int(d.counter("evop_admission_shed_total")); i++ {
		st.fail("admission shed a request")
	}
	for i := 0; i < int(d.counter("evop_admission_degraded_total")); i++ {
		st.fail("admission degraded a request")
	}
	if workload == "public_browse" {
		if w.publicPeak == 0 {
			st.fail("public_browse never cloudburst to a public instance")
		}
		if runs := d.hist("evop_model_run_seconds").Count; runs > uint64(runKeys) {
			st.fail(fmt.Sprintf("public_browse ran %d simulations for %d distinct requests", runs, runKeys))
		}
	}
}

// httpDigest reduces an answer to the value the traced run must
// reproduce (see traced.go for the other side).
func httpDigest(op *Op, rec *recorder) string {
	body := rec.body.Bytes()
	switch op.Kind {
	case KDisconnect:
		return fmt.Sprint(rec.status())
	case KMapLayers:
		var fc struct {
			Features []struct {
				ID string `json:"id"`
			} `json:"features"`
		}
		if err := json.Unmarshal(body, &fc); err != nil {
			return "undecodable"
		}
		ids := make([]string, len(fc.Features))
		for i, f := range fc.Features {
			ids[i] = f.ID
		}
		return fmt.Sprint(ids)
	case KSOSInsert:
		var r struct {
			ID string `xml:"AssignedObservationId"`
		}
		if err := xml.Unmarshal(body, &r); err != nil {
			return "undecodable"
		}
		return r.ID
	case KWPSExecute:
		return string(body)
	case KModelRun:
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(body, &doc); err != nil {
			return "undecodable"
		}
		return fieldsDigest(doc)
	}
	return string(body)
}

// fieldsDigest joins a JSON object's members in key order, each value
// as its raw encoding.
func fieldsDigest(doc map[string]json.RawMessage) string {
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.Write(doc[k])
		b.WriteByte('\n')
	}
	return b.String()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// delta diffs two registry snapshots.
type delta struct{ before, after metrics.Snapshot }

// counter sums a counter (or gauge) over every label set, optionally
// restricted to series carrying the given label pairs.
func (d delta) counter(name string, labels ...metrics.Label) float64 {
	return sumValues(d.after, name, labels) - sumValues(d.before, name, labels)
}

func sumValues(s metrics.Snapshot, name string, labels []metrics.Label) float64 {
	v := 0.0
	for _, m := range s.Metrics {
		if m.Name == name && hasLabels(m, labels) && m.Histogram == nil {
			v += m.Value
		}
	}
	return v
}

// hist returns the delta of a histogram summed over matching series.
func (d delta) hist(name string, labels ...metrics.Label) metrics.HistogramSnapshot {
	var out metrics.HistogramSnapshot
	found := false
	for _, m := range d.after.Metrics {
		if m.Name != name || m.Histogram == nil || !hasLabels(m, labels) {
			continue
		}
		since := m.Histogram.Raw().Since(findHist(d.before, m.SeriesID()))
		if !found {
			out, found = since, true
			continue
		}
		out.Count += since.Count
		out.Sum += since.Sum
	}
	return out
}

func findHist(s metrics.Snapshot, id string) metrics.HistogramSnapshot {
	for _, m := range s.Metrics {
		if m.Histogram != nil && m.SeriesID() == id {
			return m.Histogram.Raw()
		}
	}
	return metrics.HistogramSnapshot{}
}

// meanUs is a histogram delta's mean in microseconds (0 when empty).
func meanUs(h metrics.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumScaled() / float64(h.Count) * 1e6
}

func hasLabels(m metrics.Metric, want []metrics.Label) bool {
	for _, w := range want {
		found := false
		for _, l := range m.Labels {
			if l == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
