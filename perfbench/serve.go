package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"ndss/internal/core"
	"ndss/internal/corpus"
	"ndss/internal/search"
	"ndss/internal/server"
	"ndss/internal/shard"
)

// The serve-sharded workload is the serving tier end to end: edge
// server.Server -> shard.Coordinator -> 2 doc ranges x 2 replicas
// (shard.ReplicaSet over shard.HTTPShard) -> replica server.Server ->
// core.Engine, all on loopback httptest servers in this process, every
// component at its shipped defaults. Closed loop over nproc connections:
// 64-token /search queries at θ=1.0, drawn in seeded order from a pool 4x
// the edge's result cache. RATIONALE.md says why it is not open loop.
const (
	serveConns    = 2 // client connections (nproc of the reference machine)
	serveRanges   = 2
	serveReplicas = 2
	serveWarmup   = 256 // untimed requests before the timed window
)

const serveTheta = 1.0

// serveRef is the untimed reference, built once per process: the
// unsharded index, its in-process engine, and per query of the pool
// (drawn from the corpus seed, so every workload seed sends the same
// queries in its own order) the stripped response a single server over
// it gives.
type serveRef struct {
	e      *core.Engine
	pool   [][]uint32
	bodies [][]byte
	want   [][]byte
}

var serveRefMemo *serveRef

type serveFixture struct {
	c       *corpus.Corpus
	ref     *serveRef
	dirs    []string
	engines []*core.Engine
	servers []*httptest.Server // replicas, then the edge last
	coord   *shard.Coordinator
	edgeURL string
	client  *http.Client
	rec     *recorder
	seed    int64
	stats   statsLog
}

func setupServe(seed int64, rec *recorder) (fixture, *setupInfo, error) {
	start := time.Now()
	c, err := synth(corpusSeed, corpusTexts)
	if err != nil {
		return nil, nil, err
	}
	f := &serveFixture{c: c, rec: rec, seed: seed}
	info := &setupInfo{}
	if err := f.start(info); err != nil {
		f.close()
		return nil, nil, err
	}
	info.took = time.Since(start)
	if f.ref, err = serveReference(c); err != nil {
		f.close()
		return nil, nil, err
	}
	return f, info, nil
}

// start builds the doc-range indexes and brings the serving tier up.
func (f *serveFixture) start(info *setupInfo) error {
	all := texts(f.c)
	per := (len(all) + serveRanges - 1) / serveRanges
	var legs []shard.ShardClient
	for r := 0; r < serveRanges; r++ {
		sub := corpus.New(all[r*per : min((r+1)*per, len(all))])
		dir, took, err := buildIndex(sub)
		if err != nil {
			return err
		}
		f.dirs = append(f.dirs, dir)
		info.builds = append(info.builds, took)
		info.buildRates = append(info.buildRates, rate(sub.TotalTokens(), took))
		var replicas []shard.ShardClient
		for i := 0; i < serveReplicas; i++ {
			e, err := core.Open(dir, sub)
			if err != nil {
				return err
			}
			f.engines = append(f.engines, e)
			var b server.Backend = e
			if f.rec != nil {
				b = &tracedEngine{Engine: e, rec: f.rec, stats: &f.stats}
			}
			ts := httptest.NewUnstartedServer(nil)
			url := "http://" + ts.Listener.Addr().String()
			ts.Config.Handler = f.rec.handler(url, server.New(b, server.Config{}))
			ts.Start()
			f.servers = append(f.servers, ts)
			h, err := shard.NewHTTPShard(bg, url, shard.HTTPOptions{})
			if err != nil {
				return err
			}
			var cl shard.ShardClient = h
			if f.rec != nil {
				cl = &tracedHop{HTTPShard: h, rec: f.rec}
			}
			replicas = append(replicas, cl)
		}
		rs, err := shard.NewReplicaSet(fmt.Sprintf("range-%d", r), replicas, shard.ReplicaConfig{})
		if err != nil {
			return err
		}
		var leg shard.ShardClient = rs
		if f.rec != nil {
			leg = &tracedLeg{ReplicaSet: rs, rec: f.rec}
		}
		legs = append(legs, leg)
	}
	coord, err := shard.NewCoordinator(legs, shard.Config{})
	if err != nil {
		return err
	}
	f.coord = coord
	var edge server.Backend = coord
	if f.rec != nil {
		edge = &tracedCoordinator{Coordinator: coord, rec: f.rec}
	}
	ts := httptest.NewServer(f.rec.handler("edge", server.New(edge, server.Config{})))
	f.servers = append(f.servers, ts)
	f.edgeURL = ts.URL
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = serveConns
	tr.MaxIdleConnsPerHost = serveConns
	f.client = &http.Client{Transport: tr}
	return nil
}

// serveReference builds the unsharded index and records, per pool
// query, what a single in-process server over it answers.
func serveReference(c *corpus.Corpus) (*serveRef, error) {
	if serveRefMemo != nil {
		return serveRefMemo, nil
	}
	dir, _, err := buildIndex(c)
	if err != nil {
		return nil, err
	}
	e, err := core.Open(dir, c)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ref := &serveRef{e: e, pool: queryPool(c, poolSize, queryLen, corpusSeed, 2)}
	ref.bodies = make([][]byte, len(ref.pool))
	ref.want = make([][]byte, len(ref.pool))
	srv := server.New(e, server.Config{CacheEntries: -1})
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ref.pool); i += len(errs) {
				ref.bodies[i] = searchBody(ref.pool[i], serveTheta)
				rr := httptest.NewRecorder()
				srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(ref.bodies[i])))
				if rr.Code != http.StatusOK {
					errs[w] = fmt.Errorf("reference query %d: http %d: %s", i, rr.Code, rr.Body.Bytes())
					return
				}
				if ref.want[i], errs[w] = stripped(rr.Body.Bytes()); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	serveRefMemo = ref
	cleanups = append(cleanups, func() {
		e.Close()
		os.RemoveAll(dir)
	})
	return ref, nil
}

// outcome is one sent request.
type outcome struct {
	q      int
	status int
	body   []byte
	err    error
	took   time.Duration
}

func (f *serveFixture) run(d time.Duration) (*phase, error) {
	p := &phase{}
	if err := theorem2(p, f.ref.e, f.c, f.ref.pool, search.Options{Theta: serveTheta, PrefixFilter: true}, f.seed); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(f.seed))
	for _, o := range f.drive(rng, "w", serveWarmup, time.Time{}) {
		p.attempted++
		f.verify(p, o)
	}

	p.startClock()
	start := time.Now()
	outs := f.drive(rng, "q", math.MaxInt, start.Add(d))
	p.elapsed = time.Since(start)
	p.stopClock(len(outs))
	for _, o := range outs {
		p.attempted++
		if o.status == http.StatusOK {
			p.latencies = append(p.latencies, o.took)
		}
		f.verify(p, o)
	}
	for _, dir := range f.dirs {
		n, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		p.indexBytes += n
	}
	p.corpusTokens = f.c.TotalTokens()
	return p, nil
}

// drive sends up to n requests over serveConns connections, each as soon
// as a connection is free, until stop (if it is not zero), and returns
// their outcomes in the order they were sent. Queries are drawn from the
// pool with rng.
func (f *serveFixture) drive(rng *rand.Rand, idPrefix string, n int, stop time.Time) []outcome {
	var (
		mu   sync.Mutex // guards rng and outs
		outs []outcome
		wg   sync.WaitGroup
	)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := len(outs)
				if i >= n || (!stop.IsZero() && time.Now().After(stop)) {
					mu.Unlock()
					return
				}
				q := rng.Intn(poolSize)
				outs = append(outs, outcome{q: q})
				mu.Unlock()

				id := fmt.Sprintf("%s%d-%d", idPrefix, f.seed, i)
				_, end := f.rec.begin(bg, spanClient, "edge", id)
				t0 := time.Now()
				status, body, err := post(f.client, f.edgeURL+"/search", id, f.ref.bodies[q])
				took := time.Since(t0)
				end()
				mu.Lock()
				outs[i] = outcome{q: q, status: status, body: body, err: err, took: took}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// verify checks one response against the unsharded reference.
func (f *serveFixture) verify(p *phase, o outcome) {
	switch {
	case o.err != nil:
		p.fail("query %d: %v", o.q, o.err)
		return
	case o.status != http.StatusOK:
		p.fail("query %d: http %d: %s", o.q, o.status, o.body)
		return
	}
	var r searchReply
	if err := json.Unmarshal(o.body, &r); err != nil {
		p.fail("query %d: %v", o.q, err)
		return
	}
	if r.Stats.ShardsAnswered < r.Stats.ShardsTotal || r.Stats.ShardsTotal != serveRanges {
		p.fail("query %d: partial result, %d of %d shards", o.q, r.Stats.ShardsAnswered, r.Stats.ShardsTotal)
		return
	}
	got, err := stripped(o.body)
	if err != nil {
		p.fail("query %d: %v", o.q, err)
		return
	}
	if string(got) != string(f.ref.want[o.q]) {
		p.fail("query %d: sharded answer %s, unsharded reference %s", o.q, got, f.ref.want[o.q])
	}
}

func (f *serveFixture) layers(p *phase, t *spanTree, m map[string]float64) error {
	searchLayer(&f.stats, m)
	edge := t.named(spanServer, "edge")
	var replica []*span
	for _, s := range t.named(spanServer, "*") {
		if s.Tag != "edge" {
			replica = append(replica, s)
		}
	}
	m["server.self_us"] = meanUS(edge, t.self)
	m["server.replica_self_us"] = meanUS(replica, t.self)
	m["core.search_us"] = meanUS(t.named(spanCore, "*"), (*span).dur)
	coords := t.named(spanCoordinator, "*")
	m["shard.coordinator_self_us"] = meanUS(coords, t.self)
	legs := t.named(spanLeg, "*")
	m["shard.leg_us"] = meanUS(legs, (*span).dur)
	m["shard.http_hop_us"] = meanUS(t.named(spanHop, "*"), t.self)
	m["shard.straggler_us"] = meanUS(coords, func(s *span) int64 {
		var lo, hi int64
		for i, l := range t.kids(s, spanLeg) {
			if i == 0 || l.dur() < lo {
				lo = l.dur()
			}
			hi = max(hi, l.dur())
		}
		return hi - lo
	})
	var attempts int
	for _, l := range legs {
		attempts += len(t.kids(l, spanHop))
	}
	if len(legs) > 0 {
		m["shard.attempts_per_leg"] = float64(attempts) / float64(len(legs))
	}
	sm, err := scrape(f.client, f.edgeURL)
	if err != nil {
		return err
	}
	m["server.cache_hit_ratio"] = sm.Cache.HitRate
	m["server.rejected"] = float64(sm.Requests.Rejected)
	for _, sh := range sm.Shards.Shards {
		for _, r := range sh.Replicas {
			m["shard.retries"] += float64(r.Retries)
			m["shard.hedges"] += float64(r.Hedges)
		}
	}
	return shapes(f.ref.e, f.ref.pool[:shapeQueries], m)
}

func (f *serveFixture) close() {
	// The edge goes first so no request is still fanning out when the
	// replicas stop.
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].Close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	for _, e := range f.engines {
		e.Close()
	}
	for _, dir := range f.dirs {
		os.RemoveAll(dir)
	}
}
