package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ndss/internal/core"
	"ndss/internal/corpus"
	"ndss/internal/lm"
	"ndss/internal/memorize"
	"ndss/internal/search"
)

// The memorize workload is the paper's §5 pipeline as ndss-memorize runs
// it: an order-4 n-gram model trained on the corpus samples unprompted
// 512-token texts (top-50), cut into x=32 windows, each evaluated by
// memorize.Evaluate at θ=0.8 against an in-process engine. Closed loop,
// one caller.
const (
	lmOrder      = 4
	sampledTexts = 256 // 4096 windows
	sampleLen    = 512
	windowLen    = 32
	sampleTopK   = 50
)

var memorizeOpts = search.Options{Theta: 0.8, PrefixFilter: true, Verify: true}

// memorizeInput is generated once per process: training the model and
// sampling are input generation, not set-up.
type memorizeInput struct {
	windows [][]uint32
	want    []bool // per window: has a near-duplicate, per SearchBatchContext
}

var memorizeInputs = map[int64]*memorizeInput{}

type memorizeFixture struct {
	c    *corpus.Corpus
	dir  string
	e    *core.Engine
	rec  *recorder
	in   *memorizeInput
	pool [][]uint32
	seed int64

	stats    statsLog
	replayNS int64 // traced: summed Stats.Total of one replay of every window
}

func setupMemorize(seed int64, rec *recorder) (fixture, *setupInfo, error) {
	start := time.Now()
	c, err := synth(corpusSeed, corpusTexts)
	if err != nil {
		return nil, nil, err
	}
	dir, took, err := buildIndex(c)
	if err != nil {
		return nil, nil, err
	}
	e, err := core.Open(dir, c)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	info := &setupInfo{took: time.Since(start), builds: []time.Duration{took}, buildRates: []float64{rate(c.TotalTokens(), took)}}
	f := &memorizeFixture{c: c, dir: dir, e: e, rec: rec, seed: seed}
	if f.in, err = memorizeWindows(c, e, seed); err != nil {
		f.close()
		return nil, nil, err
	}
	return f, info, nil
}

func memorizeWindows(c *corpus.Corpus, e *core.Engine, seed int64) (*memorizeInput, error) {
	if in, ok := memorizeInputs[seed]; ok {
		return in, nil
	}
	model, err := lm.Train(c, lm.Config{Order: lmOrder})
	if err != nil {
		return nil, err
	}
	windows, err := memorize.GenerateQueries(model, memorize.GenConfig{
		NumTexts: sampledTexts, TextLength: sampleLen, QueryLength: windowLen,
		Sampler: lm.TopK{K: sampleTopK}, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	in := &memorizeInput{windows: windows, want: make([]bool, len(windows))}
	for i, r := range e.SearchBatchContext(bg, windows, memorizeOpts, runtime.GOMAXPROCS(0)) {
		if r.Err != nil {
			return nil, fmt.Errorf("reference for window %d: %w", i, r.Err)
		}
		in.want[i] = len(r.Matches) > 0
	}
	memorizeInputs[seed] = in
	return in, nil
}

func (f *memorizeFixture) run(d time.Duration) (*phase, error) {
	p := &phase{}
	if err := theorem2(p, f.e, f.c, f.in.windows, memorizeOpts, f.seed); err != nil {
		return nil, err
	}
	ws := f.in.windows
	p.startClock()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		w := i % len(ws)
		_, end := f.rec.begin(bg, spanEvaluate, "", "")
		t0 := time.Now()
		r, err := memorize.Evaluate(f.e.Searcher(), ws[w:w+1], memorize.EvalConfig{Options: memorizeOpts})
		lat := time.Since(t0)
		end()
		if err != nil {
			p.attempted++
			p.fail("window %d: %v", w, err)
			continue
		}
		p.latencies = append(p.latencies, lat)
		p.check((r.Memorized == 1) == f.in.want[w], "window %d: Evaluate memorized=%d, SearchBatchContext says %v", w, r.Memorized, f.in.want[w])
	}
	p.elapsed = time.Since(start)
	p.stopClock(len(p.latencies))

	var err error
	if p.indexBytes, err = dirBytes(f.dir); err != nil {
		return nil, err
	}
	p.corpusTokens = f.c.TotalTokens()
	if f.rec != nil {
		// Evaluate discards search.Stats: replay every window once
		// through the context entry point to read them.
		for _, w := range ws {
			ctx, end := f.rec.begin(bg, spanCore, "", "")
			_, st, err := f.e.SearchContext(ctx, w, memorizeOpts)
			end()
			if err != nil {
				return nil, err
			}
			f.stats.add(st)
			f.replayNS += st.Total.Nanoseconds()
		}
		f.pool = queryPool(f.c, poolSize, queryLen, corpusSeed, 2)
	}
	return p, nil
}

func (f *memorizeFixture) layers(p *phase, t *spanTree, m map[string]float64) error {
	searchLayer(&f.stats, m)
	m["core.search_us"] = meanUS(t.named(spanCore, "*"), (*span).dur)
	if evalUS := meanUS(t.named(spanEvaluate, "*"), (*span).dur); evalUS > 0 {
		m["memorize.search_share"] = float64(f.replayNS) / 1e3 / float64(len(f.in.windows)) / evalUS
	}
	memorized := 0
	for _, ok := range f.in.want {
		if ok {
			memorized++
		}
	}
	m["memorize.memorized_ratio"] = float64(memorized) / float64(len(f.in.want))
	return shapes(f.e, f.pool[:shapeQueries], m)
}

func (f *memorizeFixture) close() {
	f.e.Close()
	os.RemoveAll(f.dir)
}
