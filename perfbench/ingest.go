package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ndss/internal/core"
	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/search"
	"ndss/internal/server"
)

// The ingest-live workload puts writes beside reads on one
// server.Server over an index directory: Ingester = index.Append,
// Compactor = index.Compact, Reloader = core.Open, auto-compaction after
// compactAfter segments. One writer posts an /ingest batch of fresh
// texts once a period; one reader sends a /search query at θ=0.8 once
// every readGap, or as soon as its last one returns if that is later.
// The reader cycles through its query set in a seeded order; the swap of
// each ingest flushes the result cache, and no query comes twice
// between two ingests, so every read misses the cache and pays for the
// index's state at that moment.
//
// Both loops keep a fixed cadence because read cost depends on how many
// segments the index holds: a planted read costs 1-3 ms on a compacted
// index and ~100 ms beside appended segments, so a loop that ran back to
// back would make the segment timeline, and what the reads cost, follow
// the host's speed and the compactions' length. readGap does not divide
// the period, so reads fall on every phase of the ingest and compaction
// cycle rather than always near the moment a compaction swaps in.
// RATIONALE.md has the measurements behind these choices.
const (
	ingestBatch = 20 // texts per /ingest
	// One /ingest is due every period: long enough that an ingest that
	// waits for a background compaction (the server serializes
	// mutations) is done before the next one is due.
	ingestPeriod = time.Second
	// readQueries is the reader's query set, small enough that every
	// run reads each query several times: planted queries differ in
	// cost, so runs reading different samples of a larger set would read
	// different mean costs.
	readQueries = 128
	// readGap is the reader's pace: about 1040 reads a run, so that ten
	// lie beyond query_p99_ms, and no query twice between two ingests.
	readGap = 24 * time.Millisecond
	// One read query in readPlantedEvery is a planted near-duplicate. Those
	// take 30-100x longer on a multi-segment index than random ones, so
	// with this share the read median falls among the random reads and
	// the p99 among the planted ones, not on the edge between the two,
	// and the reader keeps one of the two CPUs busy about a third of the
	// time.
	readPlantedEvery = 8
	compactAfter     = 4
	ingestTheta      = 0.8
	drainTimeout     = time.Minute
)

type ingestFixture struct {
	c       *corpus.Corpus
	dir     string
	initial *core.Engine // the backend the server starts on; it closes it on the first swap
	mu      sync.Mutex
	last    *core.Engine // guarded by mu; the backend serving now, which nothing else closes
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	rec     *recorder
	seed    int64
	reads   [][]uint32

	compactCalls, compactErrs atomic.Int64

	// Traced runs only.
	stats      statsLog
	writeBytes atomic.Int64 // bytes the Ingester and Compactor left on disk
	segments   []int        // /metrics index.segments after each ingest
	shape      map[string]float64
}

func setupIngest(seed int64, rec *recorder) (fixture, *setupInfo, error) {
	start := time.Now()
	c, err := synth(corpusSeed, corpusTexts)
	if err != nil {
		return nil, nil, err
	}
	dir, took, err := buildIndex(c)
	if err != nil {
		return nil, nil, err
	}
	f := &ingestFixture{c: c, dir: dir, rec: rec, seed: seed}
	b, err := f.open()
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	f.srv = server.New(b, server.Config{
		Ingester:     f.ingester,
		Compactor:    f.compactor,
		Reloader:     f.open,
		CompactAfter: compactAfter,
	})
	f.ts = httptest.NewServer(rec.handler("server", f.srv))
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 2
	f.client = &http.Client{Transport: tr}
	info := &setupInfo{took: time.Since(start), builds: []time.Duration{took}, buildRates: []float64{rate(c.TotalTokens(), took)}}
	f.reads = queryPool(c, readQueries, queryLen, corpusSeed, readPlantedEvery)
	return f, info, nil
}

// open is the Reloader: a fresh engine over the index directory.
func (f *ingestFixture) open() (server.Backend, error) {
	_, end := f.rec.begin(bg, spanReload, "", "")
	defer end()
	e, err := core.Open(f.dir, nil)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.initial == nil {
		f.initial = e
	}
	f.last = e
	f.mu.Unlock()
	if f.rec == nil {
		return e, nil
	}
	return &tracedEngine{Engine: e, rec: f.rec, stats: &f.stats}, nil
}

func (f *ingestFixture) ingester(txts [][]uint32) (string, error) {
	_, end := f.rec.begin(bg, spanAppend, "", "")
	defer end()
	before := f.diskBytes()
	id, err := index.Append(f.dir, corpus.New(txts))
	f.writeBytes.Add(f.diskBytes() - before)
	return id, err
}

func (f *ingestFixture) compactor() error {
	f.compactCalls.Add(1)
	_, end := f.rec.begin(bg, spanCompact, "", "")
	defer end()
	err := index.Compact(f.dir)
	if err != nil {
		f.compactErrs.Add(1)
	}
	// Compaction rewrites every live posting into the new root.
	f.writeBytes.Add(f.diskBytes())
	return err
}

// diskBytes sizes the index directory, in traced runs only.
func (f *ingestFixture) diskBytes() int64 {
	if f.rec == nil {
		return 0
	}
	n, _ := dirBytes(f.dir) // a failed walk only loses write-amp accuracy
	return n
}

func (f *ingestFixture) run(d time.Duration) (*phase, error) {
	p := &phase{}
	opts := search.Options{Theta: ingestTheta, PrefixFilter: true}
	if err := theorem2(p, f.initial, f.c, f.reads, opts, f.seed); err != nil {
		return nil, err
	}
	if f.rec != nil {
		f.shape = map[string]float64{}
		if err := shapes(f.initial, queryPool(f.c, poolSize, queryLen, corpusSeed, 2)[:shapeQueries], f.shape); err != nil {
			return nil, err
		}
	}
	// The reader cycles through the read set in a seeded order that
	// keeps the pool's pattern of one planted query in readPlantedEvery,
	// so any stretch of reads has the same mix.
	rng := rand.New(rand.NewSource(f.seed))
	order := make([]int, len(f.reads))
	for k := 0; k < readPlantedEvery; k++ {
		for j, r := range rng.Perm(len(f.reads) / readPlantedEvery) {
			order[j*readPlantedEvery+k] = r*readPlantedEvery + k
		}
	}
	bodies := make([][]byte, len(f.reads))
	for i, q := range order {
		bodies[i] = searchBody(f.reads[q], ingestTheta)
	}

	var (
		mu sync.Mutex // guards p across the two loops
		wg sync.WaitGroup
	)
	p.startClock()
	start := time.Now()
	deadline := start.Add(d)
	wg.Add(2)
	go func() { // reader
		defer wg.Done()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * readGap)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			id := fmt.Sprintf("r%d-%d", f.seed, i)
			_, end := f.rec.begin(bg, spanClient, "server", id)
			t0 := time.Now()
			status, body, err := post(f.client, f.ts.URL+"/search", id, bodies[i%len(bodies)])
			lat := time.Since(t0)
			end()
			mu.Lock()
			if err == nil && status == http.StatusOK {
				p.latencies = append(p.latencies, lat)
				p.busy += lat
			}
			p.check(err == nil && status == http.StatusOK, "read %d: http %d %v: %s", i, status, err, body)
			mu.Unlock()
		}
	}()
	var ingestErr error
	go func() { // writer
		defer wg.Done()
		ingestErr = f.write(p, &mu, start, deadline)
	}()
	wg.Wait()
	p.elapsed = time.Since(start)
	p.stopClock(len(p.latencies))
	if ingestErr != nil {
		return nil, ingestErr
	}
	if err := f.drain(); err != nil {
		return nil, err
	}
	var err error
	if p.indexBytes, err = dirBytes(f.dir); err != nil {
		return nil, err
	}
	p.corpusTokens = f.c.TotalTokens() + p.writeToks
	return p, nil
}

// write posts one ingest batch per period until the deadline, timing
// each from when it was due. After each it checks read-your-writes: a
// slice of one just-ingested text must find it.
func (f *ingestFixture) write(p *phase, mu *sync.Mutex, start, deadline time.Time) error {
	nextID := uint32(f.c.NumTexts())
	var lates []time.Duration
	for batch := 0; ; batch++ {
		due := start.Add(time.Duration(batch) * ingestPeriod)
		if !due.Before(deadline) {
			p.lateP99MS = quantileMS(lates, 0.99)
			return nil
		}
		fresh, err := synth(1e9+f.seed*1e6+int64(batch), ingestBatch)
		if err != nil {
			return err
		}
		txts := texts(fresh)
		body, err := json.Marshal(map[string]any{"texts": txts})
		if err != nil {
			return err
		}
		id := fmt.Sprintf("i%d-%d", f.seed, batch)
		time.Sleep(time.Until(due))
		sent := time.Now()
		// Only this goroutine writes p.behind while the run lasts.
		late := sent.Sub(due)
		lates = append(lates, late)
		if late > ingestPeriod && p.behind == "" {
			p.behind = fmt.Sprintf("writer fell behind: ingest %d went out %v after it was due", batch, late.Round(time.Millisecond))
		}
		status, resp, err := post(f.client, f.ts.URL+"/ingest", id, body)
		done := time.Now()
		ok := err == nil && status == http.StatusOK
		mu.Lock()
		p.check(ok, "ingest %d: http %d %v: %s", batch, status, err, resp)
		if ok {
			p.writes = append(p.writes, done.Sub(due))
			p.writeToks += fresh.TotalTokens()
			p.writeRates = append(p.writeRates, rate(fresh.TotalTokens(), done.Sub(sent)))
		}
		mu.Unlock()
		if !ok {
			continue
		}
		j := batch % ingestBatch
		want := nextID + uint32(j)
		nextID += ingestBatch
		q := txts[j][len(txts[j])-queryLen:]
		status, resp, err = post(f.client, f.ts.URL+"/search", id+"-ryw", searchBody(q, 1.0))
		var r searchReply
		found := err == nil && status == http.StatusOK && json.Unmarshal(resp, &r) == nil
		if found {
			found = false
			for _, m := range r.Matches {
				found = found || m.TextID == want
			}
		}
		mu.Lock()
		p.check(found, "read-your-writes after ingest %d: text %d not found (http %d %v)", batch, want, status, err)
		mu.Unlock()
		if f.rec != nil {
			sm, err := scrape(f.client, f.ts.URL)
			if err != nil {
				return err
			}
			f.segments = append(f.segments, sm.Index.Segments)
		}
	}
}

// drain waits for a background compaction the last ingests started.
func (f *ingestFixture) drain() error {
	for stop := time.Now().Add(drainTimeout); time.Now().Before(stop); time.Sleep(10 * time.Millisecond) {
		sm, err := scrape(f.client, f.ts.URL)
		if err != nil {
			return err
		}
		if sm.Segments.Compactions+f.compactErrs.Load() == f.compactCalls.Load() {
			if n := f.compactErrs.Load(); n > 0 {
				return fmt.Errorf("%d compactions failed", n)
			}
			return nil
		}
	}
	return fmt.Errorf("background compaction still running after %v", drainTimeout)
}

func (f *ingestFixture) layers(p *phase, t *spanTree, m map[string]float64) error {
	searchLayer(&f.stats, m)
	for k, v := range f.shape {
		m[k] = v
	}
	m["index.append_ms"] = meanUS(t.named(spanAppend, "*"), (*span).dur) / 1e3
	compacts := t.named(spanCompact, "*")
	m["index.compact_ms"] = meanUS(compacts, (*span).dur) / 1e3
	m["index.compactions"] = float64(len(compacts))
	m["index.write_amp"] = float64(f.writeBytes.Load()) / float64(4*p.writeToks)
	var segs int
	for _, s := range f.segments {
		segs += s
	}
	if len(f.segments) > 0 {
		m["index.segments_mean"] = float64(segs) / float64(len(f.segments))
	}
	m["server.reload_ms"] = meanUS(t.named(spanReload, "*"), (*span).dur) / 1e3
	m["server.self_us"] = meanUS(t.named(spanServer, "server"), t.self)
	m["core.search_us"] = meanUS(t.named(spanCore, "*"), (*span).dur)
	sm, err := scrape(f.client, f.ts.URL)
	if err != nil {
		return err
	}
	m["server.cache_hit_ratio"] = sm.Cache.HitRate
	m["server.rejected"] = float64(sm.Requests.Rejected)
	return nil
}

func (f *ingestFixture) close() {
	if err := f.drain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing ingest fixture:", err)
	}
	f.ts.Close()
	f.client.CloseIdleConnections()
	f.mu.Lock()
	f.last.Close()
	f.mu.Unlock()
	os.RemoveAll(f.dir)
}
