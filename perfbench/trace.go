package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ndss/internal/core"
	"ndss/internal/search"
	"ndss/internal/server"
	"ndss/internal/shard"
)

// Spans are recorded only by the benchmark's own wrappers, at the layer
// boundaries the program exposes: server.Backend, shard.ShardClient, the
// server.Config closures, the HTTP handler of each server, and the client
// round trip. All spans of one request carry the load generator's
// X-Request-ID.

// headerRequestID is the request-id header the servers echo and the
// HTTP shard client forwards to replicas.
const headerRequestID = "X-Request-ID"

// Span names, one per layer boundary.
const (
	spanClient      = "client"        // load generator round trip
	spanServer      = "server/search" // a server's /search handler
	spanCoordinator = "coordinator"   // edge server.Backend = shard.Coordinator
	spanLeg         = "leg"           // shard.ReplicaSet as the coordinator's ShardClient
	spanHop         = "hop"           // shard.HTTPShard as the replica set's ShardClient
	spanCore        = "core"          // core.Engine as a server.Backend, or a direct engine call
	spanEvaluate    = "evaluate"      // memorize.Evaluate
	spanAppend      = "append"        // server.Config.Ingester
	spanCompact     = "compact"       // server.Config.Compactor
	spanReload      = "reload"        // server.Config.Reloader
)

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the recorder's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

type spanKey struct{}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pass nil and pay one nil check.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the span ctx carries and returns ctx
// carrying the new one, plus the function that closes it. req falls
// back to the request id the serving middleware put into ctx.
func (r *recorder) begin(ctx context.Context, name, tag, req string) (context.Context, func()) {
	if r == nil {
		return ctx, func() {}
	}
	if req == "" {
		req = server.RequestIDFromContext(ctx)
	}
	id := r.next.Add(1)
	parent, _ := ctx.Value(spanKey{}).(int64)
	start := time.Since(r.epoch).Nanoseconds()
	return context.WithValue(ctx, spanKey{}, id), func() {
		end := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Tag: tag, Start: start, End: end})
		r.mu.Unlock()
	}
}

// handler records a span around every request a server handles.
func (r *recorder) handler(tag string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ctx, end := r.begin(req.Context(), "server"+req.URL.Path, tag, req.Header.Get(headerRequestID))
		h.ServeHTTP(w, req.WithContext(ctx))
		end()
	})
}

// dump writes the spans as JSON lines.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// statsLog sums the search.Stats the engine returns.
type statsLog struct {
	mu    sync.Mutex
	n     int
	sum   search.Stats
	stage search.StageTimes
}

func (l *statsLog) add(st *search.Stats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	l.sum.ShortLists += st.ShortLists
	l.sum.LongLists += st.LongLists
	l.sum.Candidates += st.Candidates
	l.sum.Probed += st.Probed
	l.sum.Rects += st.Rects
	l.sum.Matches += st.Matches
	l.sum.IOBytes += st.IOBytes
	l.sum.IOTime += st.IOTime
	l.sum.Total += st.Total
	l.stage = l.stage.Add(st.StageTimes)
}

// tracedEngine is a server.Backend over one core.Engine. Embedding keeps
// every optional method the server discovers (SegmentCount, Close).
type tracedEngine struct {
	*core.Engine
	rec   *recorder
	stats *statsLog
}

func (e *tracedEngine) SearchContext(ctx context.Context, q []uint32, opts search.Options) ([]search.Match, *search.Stats, error) {
	ctx, end := e.rec.begin(ctx, spanCore, "", "")
	m, st, err := e.Engine.SearchContext(ctx, q, opts)
	end()
	if err == nil {
		e.stats.add(st)
	}
	return m, st, err
}

// tracedCoordinator is the edge server's Backend; embedding keeps
// ShardMetrics for /metrics.
type tracedCoordinator struct {
	*shard.Coordinator
	rec *recorder
}

func (c *tracedCoordinator) SearchContext(ctx context.Context, q []uint32, opts search.Options) ([]search.Match, *search.Stats, error) {
	ctx, end := c.rec.begin(ctx, spanCoordinator, "", "")
	defer end()
	return c.Coordinator.SearchContext(ctx, q, opts)
}

// tracedLeg is one replica set as the coordinator's ShardClient;
// embedding keeps ReplicaMetrics for /metrics.
type tracedLeg struct {
	*shard.ReplicaSet
	rec *recorder
}

func (l *tracedLeg) SearchContext(ctx context.Context, q []uint32, opts search.Options) ([]search.Match, *search.Stats, error) {
	ctx, end := l.rec.begin(ctx, spanLeg, l.Name(), "")
	defer end()
	return l.ReplicaSet.SearchContext(ctx, q, opts)
}

// tracedHop is one replica as its replica set's ShardClient.
type tracedHop struct {
	*shard.HTTPShard
	rec *recorder
}

func (h *tracedHop) SearchContext(ctx context.Context, q []uint32, opts search.Options) ([]search.Match, *search.Stats, error) {
	ctx, end := h.rec.begin(ctx, spanHop, h.Name(), "")
	defer end()
	return h.HTTPShard.SearchContext(ctx, q, opts)
}

// spanTree indexes the recorded spans by name and parent.
type spanTree struct {
	spans    []span
	byName   map[string][]int
	children map[int64][]int
}

// tree links the spans. A server span opened by a request that crossed
// the network has no in-process parent; it is attached to the span on
// the calling side with the same request id and tag (the client round
// trip for the edge, the hop to that replica for a replica server)
// during which it started. A hedge's losing hop returns before its
// remote span ends; self times clip children to the parent's interval.
func (r *recorder) tree() *spanTree {
	t := &spanTree{spans: r.spans, byName: map[string][]int{}, children: map[int64][]int{}}
	type key struct{ req, tag string }
	callers := map[key][]int{}
	for i := range t.spans {
		s := &t.spans[i]
		t.byName[s.Name] = append(t.byName[s.Name], i)
		if s.Name == spanClient || s.Name == spanHop {
			callers[key{s.Req, s.Tag}] = append(callers[key{s.Req, s.Tag}], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent == 0 && s.Req != "" && s.Name == spanServer {
			for _, c := range callers[key{s.Req, s.Tag}] {
				cs := &t.spans[c]
				if cs.Start <= s.Start && s.Start <= cs.End {
					s.Parent = cs.ID
					break
				}
			}
		}
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], i)
		}
	}
	return t
}

// named returns the spans with the given name (and tag, unless "*").
func (t *spanTree) named(name, tag string) []*span {
	var out []*span
	for _, i := range t.byName[name] {
		if tag == "*" || t.spans[i].Tag == tag {
			out = append(out, &t.spans[i])
		}
	}
	return out
}

func (t *spanTree) kids(s *span, name string) []*span {
	var out []*span
	for _, i := range t.children[s.ID] {
		if t.spans[i].Name == name {
			out = append(out, &t.spans[i])
		}
	}
	return out
}

// self is a span's duration minus the part of it its children cover.
func (t *spanTree) self(s *span) int64 {
	var ivs [][2]int64
	for _, i := range t.children[s.ID] {
		c := &t.spans[i]
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if lo < hi {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	covered, curLo, curHi := int64(0), int64(-1), int64(-1)
	for _, iv := range ivs {
		if iv[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	covered += curHi - curLo
	return s.dur() - covered
}

// meanUS averages f over spans, in microseconds; 0 when there are none.
func meanUS(spans []*span, f func(*span) int64) float64 {
	if len(spans) == 0 {
		return 0
	}
	var sum int64
	for _, s := range spans {
		sum += f(s)
	}
	return float64(sum) / float64(len(spans)) / 1e3
}
