// Command perfbench is the repository benchmark: three seeded workloads
// over the shared SynWeb-style fixture, each timed end to end, with a
// separate traced run that splits the time by layer. RATIONALE.md says
// why each workload and metric was chosen and which end-to-end metric
// each layer metric should move.
//
//	perfbench --workload memorize|serve-sharded|ingest-live --seed N --seconds S --trace 0|1
//
// Progress goes to standard error; standard output ends with one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer
// ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ndss/internal/core"
	"ndss/internal/search"
)

// metricDef is one metric of BENCHMARK.json, which names the metrics
// each mode reports and their units.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s names no end_to_end or no per_layer metrics", path)
	}
	return &sp, nil
}

// fixture is one set-up workload, ready to run.
type fixture interface {
	// run drives the workload for the given time and checks every
	// output it got.
	run(d time.Duration) (*phase, error)
	// layers adds the workload's per-layer metrics, read from a traced
	// run, to m.
	layers(p *phase, t *spanTree, m map[string]float64) error
	close()
}

// setupFn builds a fixture from the workload seed. A non-nil recorder
// installs the span wrappers.
type setupFn func(seed int64, rec *recorder) (fixture, *setupInfo, error)

var workloads = map[string]setupFn{
	"memorize":      setupMemorize,
	"serve-sharded": setupServe,
	"ingest-live":   setupIngest,
}

// setupInfo is what one set-up cost: its wall time (setup_s) and the
// bulk index builds inside it.
type setupInfo struct {
	took       time.Duration
	builds     []time.Duration
	buildRates []float64 // tokens indexed per second, per build
}

// phase is what one timed run observed.
type phase struct {
	attempted, failed int
	failures          []string

	elapsed    time.Duration   // wall time of the timed window
	busy       time.Duration   // time queries were in flight, where a loop pauses (ingest-live)
	latencies  []time.Duration // per query, in the order they were sent
	writes     []time.Duration // per ingest from its due time (ingest-live only)
	writeToks  int64           // tokens committed by those ingests
	writeRates []float64       // per ingest, its tokens over its time from send to reply

	indexBytes, corpusTokens int64
	lateP99MS                float64 // ingest-live writer: how late its ingests went out
	behind                   string  // why the writer fell behind, if it did
	rssMB                    float64 // peak RSS over the run

	// Between startClock and stopClock: process memory counters, CPU
	// ticks, the window's length and the operations it completed.
	mem0, mem1 runtime.MemStats
	cpu0, cpu1 cpuTicks
	clock0     time.Time
	clocked    time.Duration
	ops        int
}

// stealShare is the share of all CPU time the hypervisor took from the
// machine during the timed window. It is printed with each run, to tell
// a run the host slowed from one the program did.
func (p *phase) stealShare() float64 {
	total := p.cpu1.total - p.cpu0.total
	if total <= 0 {
		return 0
	}
	return float64(p.cpu1.steal-p.cpu0.steal) / float64(total)
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one checked operation, failing it with msg when !ok.
func (p *phase) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.fail(format, args...)
	}
}

func (p *phase) startClock() {
	runtime.ReadMemStats(&p.mem0)
	p.cpu0 = readCPUTicks()
	p.clock0 = time.Now()
}

func (p *phase) stopClock(ops int) {
	p.clocked = time.Since(p.clock0)
	p.cpu1 = readCPUTicks()
	runtime.ReadMemStats(&p.mem1)
	p.ops = ops
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "memorize, serve-sharded or ingest-live")
	seed := flag.Int64("seed", 1, "workload seed: query order, sampled texts, ingested texts")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Int64Var(&corpusSeed, "corpus-seed", corpusSeed, "fixture corpus seed")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 0 {
		res, err = runEndToEnd(sp.EndToEnd, setup, *seed, d)
	} else {
		res, err = runTraced(sp.PerLayer, *name, setup, *seed, d)
	}
	for _, fn := range cleanups {
		fn()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// cleanups release what outlives one fixture (the per-process
// references); main runs them before it exits.
var cleanups []func()

// setupMany sets the workload up n times, keeps the last fixture and
// returns every set-up's cost.
func setupMany(setup setupFn, seed int64, n int, rec *recorder) (fixture, []*setupInfo, error) {
	var (
		f     fixture
		infos []*setupInfo
	)
	for i := 0; i < n; i++ {
		if f != nil {
			f.close()
		}
		nf, info, err := setup(seed, rec)
		if err != nil {
			return nil, nil, err
		}
		f = nf
		infos = append(infos, info)
		fmt.Fprintf(os.Stderr, "setup %d: %v\n", i+1, info.took)
	}
	return f, infos, nil
}

func runPhase(f fixture, d time.Duration) (*phase, error) {
	defer f.close()
	p, err := f.run(d)
	if err != nil {
		return nil, err
	}
	for _, msg := range p.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", msg)
	}
	fmt.Fprintf(os.Stderr, "timed run: %v, %d queries, host steal %.2f%%\n", p.elapsed.Round(time.Millisecond), len(p.latencies), 100*p.stealShare())
	return p, nil
}

// measure runs the timed phase on f and reads the peak RSS it reached.
func measure(f fixture, d time.Duration) (*phase, error) {
	if err := resetPeakRSS(); err != nil {
		f.close()
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	p, err := runPhase(f, d)
	if err != nil {
		return nil, err
	}
	p.rssMB, err = rssPeakMB()
	return p, err
}

// newResult reports p. It is correct when every checked output was. A
// writer that fell behind slowed the measurement, not the outputs: the
// run is reported with a warning, and since its ingests are timed from
// when they were due, the backlog shows in ingest_p50_ms.
func newResult(p *phase) *result {
	if p.behind != "" {
		fmt.Fprintln(os.Stderr, "WARNING: the reported run was slowed:", p.behind)
	}
	return &result{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   map[string]metricOut{},
	}
}

func runEndToEnd(defs []metricDef, setup setupFn, seed int64, d time.Duration) (*result, error) {
	f, infos, err := setupMany(setup, seed, setupRepeats, nil)
	if err != nil {
		return nil, err
	}
	p, err := measure(f, d)
	if err != nil {
		return nil, err
	}
	if p.attempted == 0 || len(p.latencies) == 0 || p.corpusTokens == 0 {
		return nil, fmt.Errorf("run completed no work")
	}
	var setups []time.Duration
	writes, writeRates := p.writes, p.writeRates
	for _, info := range infos {
		setups = append(setups, info.took)
		if len(p.writes) == 0 {
			// A static index is written once, by set-up's bulk builds.
			writes = append(writes, info.builds...)
			writeRates = append(writeRates, info.buildRates...)
		}
	}
	busy := p.elapsed
	if p.busy > 0 {
		busy = p.busy
	}
	res := newResult(p)
	v := map[string]float64{
		"setup_s":               quantileMS(setups, 0.5) / 1e3,
		"queries_per_s":         float64(len(p.latencies)) / busy.Seconds(),
		"query_p50_ms":          quantileMS(p.latencies, 0.5),
		"query_p99_ms":          quantileMS(p.latencies, 0.99),
		"ingest_p50_ms":         quantileMS(writes, 0.5),
		"ingest_tokens_per_s":   median(writeRates),
		"success_ratio":         float64(p.attempted-p.failed) / float64(p.attempted),
		"index_bytes_per_token": float64(p.indexBytes) / float64(p.corpusTokens),
		"rss_peak_mb":           p.rssMB,
	}
	return res, fill(res, defs, v)
}

func runTraced(defs []metricDef, name string, setup setupFn, seed int64, d time.Duration) (*result, error) {
	// The untraced half is the --trace 0 code path, for the overhead
	// comparison and the process-wide counters.
	f, _, err := setupMany(setup, seed, 1, nil)
	if err != nil {
		return nil, err
	}
	plain, err := measure(f, d)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	f, infos, err := setupMany(setup, seed, 1, rec)
	if err != nil {
		return nil, err
	}
	defer f.close()
	traced, err := f.run(d)
	if err != nil {
		return nil, err
	}
	for _, msg := range traced.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", msg)
	}
	m := map[string]float64{}
	for _, def := range defs {
		m[def.Name] = 0
	}
	t := rec.tree()
	if err := f.layers(traced, t, m); err != nil {
		return nil, err
	}
	for _, b := range infos[0].builds {
		m["index.build_s"] += b.Seconds()
	}
	m["runtime.allocs_per_query"] = float64(plain.mem1.Mallocs-plain.mem0.Mallocs) / float64(plain.ops)
	m["runtime.gc_pause_ms_per_s"] = float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs) / 1e6 / plain.clocked.Seconds()
	m["loadgen.late_p99_ms"] = plain.lateP99MS
	m["trace.overhead_pct"] = (quantileMS(traced.latencies, 0.5)/quantileMS(plain.latencies, 0.5) - 1) * 100

	out := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := rec.dump(out); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(rec.spans), out)

	merged := &phase{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		behind:    plain.behind,
	}
	res := newResult(merged)
	return res, fill(res, defs, m)
}

// searchLayer turns the summed search.Stats into per-query means.
func searchLayer(l *statsLog, m map[string]float64) {
	if l.n == 0 {
		return
	}
	n := float64(l.n)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / n }
	m["search.sketch_us"] = us(l.stage.Sketch)
	m["search.plan_us"] = us(l.stage.Plan)
	m["search.gather_us"] = us(l.stage.Gather)
	m["search.count_us"] = us(l.stage.Count)
	m["search.merge_us"] = us(l.stage.Merge)
	m["search.verify_us"] = us(l.stage.Verify)
	m["search.lists_full"] = float64(l.sum.ShortLists) / n
	m["search.lists_deferred"] = float64(l.sum.LongLists) / n
	m["search.candidates"] = float64(l.sum.Candidates) / n
	m["search.probes"] = float64(l.sum.Probed) / n
	m["search.rects"] = float64(l.sum.Rects) / n
	m["search.matches"] = float64(l.sum.Matches) / n
	if l.sum.Candidates > 0 {
		m["search.candidate_yield"] = float64(l.sum.Matches) / float64(l.sum.Candidates)
	}
	m["index.read_bytes"] = float64(l.sum.IOBytes) / n
	m["index.read_us"] = us(l.sum.IOTime)
}

// shapes measures the paper's two query-cost shapes on an in-process
// engine over the serve query pool: Fig 3(a)'s θ=0.7 over θ=1.0 latency
// and ab2's gain from prefix filtering at θ=0.8. Both are reported as
// measured, never gated.
func shapes(e *core.Engine, pool [][]uint32, m map[string]float64) error {
	mean := func(opts search.Options) (float64, error) {
		var total time.Duration
		for _, q := range pool {
			_, st, err := e.SearchContext(bg, q, opts)
			if err != nil {
				return 0, err
			}
			total += st.Total
		}
		return float64(total) / float64(len(pool)), nil
	}
	var t [4]float64
	for i, opts := range []search.Options{
		{Theta: 0.7, PrefixFilter: true},
		{Theta: 1.0, PrefixFilter: true},
		{Theta: 0.8},
		{Theta: 0.8, PrefixFilter: true},
	} {
		v, err := mean(opts)
		if err != nil {
			return fmt.Errorf("shape sweep: %w", err)
		}
		t[i] = v
	}
	m["search.theta_sweep_ratio"] = t[0] / t[1]
	m["search.prefix_filter_gain"] = t[2] / t[3]
	return nil
}

// fill copies values into res for exactly the given metrics.
func fill(res *result, defs []metricDef, v map[string]float64) error {
	for _, def := range defs {
		x, ok := v[def.Name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s not measured (%v)", def.Name, x)
		}
		res.Metrics[def.Name] = metricOut{Value: x, Unit: def.Unit}
	}
	return nil
}
