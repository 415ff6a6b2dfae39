// Command perfbench is the repository's end-to-end benchmark: it drives
// a freshly built observatory and portal on the simulated clock with a
// seeded stream of requests from one closed-loop client, checks every
// answer, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced replay (--trace 1) as one JSON line.
//
//	go run . --workload public_browse --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setups is how many times a run builds the world to report the median
// set-up time; the last build is the one measured.
const setups = 3

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "public_browse", "workload name")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 10, "measured run length the op count is sized for")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	out := fl.String("out", filepath.Join(".bench_build", "perfbench-traces"), "directory for the span dump of --trace 1")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	stream, err := Generate(*workload, *seed, *seconds)
	if err != nil {
		return err
	}
	meta := hostMeta()
	meta["workload"], meta["seed"], meta["seconds"], meta["trace"] = *workload, *seed, *seconds, *trace
	meta["ops_total"], meta["op_stream_sha256"] = stream.Summary()
	meta["chunks"] = stream.Chunks

	var res *Result
	if *trace == 0 {
		res, err = endToEnd(stream, meta)
	} else {
		res, err = perLayer(stream, meta, *out)
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// buildWorlds builds the world n times and returns the last one with
// every build's set-up and backfill time; the others are stopped.
func buildWorlds(n int, subscribe bool) (*world, []float64, []float64, error) {
	var setup, fill []float64
	var w *world
	for i := 0; i < n; i++ {
		if w != nil {
			w.stop()
		}
		var err error
		if w, err = newWorld(subscribe); err != nil {
			return nil, nil, nil, err
		}
		setup = append(setup, w.setup.Seconds())
		fill = append(fill, w.backfill.Seconds())
	}
	return w, setup, fill, nil
}

func endToEnd(s *Stream, meta map[string]any) (*Result, error) {
	w, setup, _, err := buildWorlds(setups, s.Workload == "sensor_ingest")
	if err != nil {
		return nil, err
	}
	st := runHTTP(w, s, false)
	// The live heap is what the stopped world gives back: the
	// benchmark's own records stay alive across both readings.
	live := heapAfterGC()
	w.stop()
	w = nil
	live -= heapAfterGC()
	lat := sortedCopy(st.Latencies)
	describeRun(meta, st)
	meta["setup_s_each"] = setup
	m := map[string]Metric{
		"throughput_rps":   {Median(st.ChunkRPS), "1/s"},
		"latency_p50_ms":   {Percentile(lat, 0.50), "ms"},
		"latency_p90_ms":   {Percentile(lat, 0.90), "ms"},
		"cpu_us_per_req":   {Median(st.ChunkCPU), "us"},
		"allocs_per_req":   {float64(st.Mallocs) / float64(st.Measured), "count"},
		"alloc_kb_per_req": {float64(st.AllocBytes) / float64(st.Measured) / 1024, "KiB"},
		"live_heap_mb":     {float64(live) / (1 << 20), "MiB"},
		"setup_s":          {Median(setup), "s"},
	}
	return &Result{Correct: st.Failed() == 0, Attempted: st.Attempted, Failed: st.Failed(), Metrics: m}, nil
}

// heapAfterGC is the heap in use right after a forced collection.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// describeRun adds the run's sample counts and check tallies to meta.
func describeRun(meta map[string]any, st *runStats) {
	meta["ops_measured"] = st.Measured
	meta["ops_warmup"] = st.Attempted - st.Measured
	meta["measured_s"] = st.Elapsed.Seconds()
	meta["latency_samples"] = len(st.Latencies)
	meta["latency_p90_samples_above"] = len(st.Latencies) - int(0.90*float64(len(st.Latencies)))
	meta["throughput_chunks"] = len(st.ChunkRPS)
	meta["chunk_rps"] = st.ChunkRPS
	routes := make(map[string]int)
	for r, l := range st.RouteLat {
		routes[r] = len(l)
	}
	meta["route_samples"] = routes
	meta["ingest_reads_checked_exact"] = st.IngestChecks
	meta["ingest_reads_superseded"] = st.IngestSuperseded
	meta["model_bodies_verified"] = st.ModelBodiesVerified
	meta["public_instances_peak"] = st.PublicPeak
	meta["error_rate"] = float64(st.Failed()) / float64(st.Attempted)
	if len(st.Failures) > 0 {
		meta["failures"] = st.Failures
	}
}

// hostMeta records what every number depends on: the host, the
// toolchain and the source it measured.
func hostMeta() map[string]any {
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
		"started_utc":   time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the checked-out revision, or "unknown" when the directory
// is not a git checkout; the source digest identifies the build either
// way.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's Go sources and module file under
// root, skipping the benchmark's own directory.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == "perfbench" || strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
