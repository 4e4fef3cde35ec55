package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sort"

	"ndss/internal/baseline"
	"ndss/internal/core"
	"ndss/internal/corpus"
	"ndss/internal/search"
)

var bg = context.Background()

// theorem2 is the untimed spot check of Theorem 2: for the first three
// queries with an answer, the engine's matches on the texts they hit
// (at most two) plus one random text must equal baseline.MinHashScan,
// the Definition-2 brute force, over those texts.
func theorem2(p *phase, e *core.Engine, c *corpus.Corpus, queries [][]uint32, opts search.Options, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	for qi, q := range queries {
		if checked == 3 {
			break
		}
		ms, _, err := e.SearchContext(bg, q, opts)
		if err != nil {
			return fmt.Errorf("theorem 2 check: %w", err)
		}
		if len(ms) == 0 {
			continue
		}
		checked++
		sub := map[uint32]uint32{} // corpus id -> id in the brute-force corpus
		var subTexts [][]uint32
		add := func(id uint32) {
			if _, ok := sub[id]; !ok {
				sub[id] = uint32(len(subTexts))
				subTexts = append(subTexts, c.Text(id))
			}
		}
		for _, m := range ms {
			if len(sub) == 2 {
				break
			}
			add(m.TextID)
		}
		add(uint32(rng.Intn(c.NumTexts())))
		want := baseline.MinHashScan(corpus.New(subTexts), e.Family(), q, opts.Theta, buildOpts.T)
		got := []baseline.Span{}
		for _, m := range ms {
			if id, ok := sub[m.TextID]; ok {
				got = append(got, baseline.Span{TextID: id, Start: m.Start, End: m.End})
			}
		}
		sort.Slice(got, func(a, b int) bool {
			if got[a].TextID != got[b].TextID {
				return got[a].TextID < got[b].TextID
			}
			return got[a].Start < got[b].Start
		})
		if want == nil {
			want = []baseline.Span{}
		}
		p.check(reflect.DeepEqual(got, want), "theorem 2: query %d: engine %v, brute force %v", qi, got, want)
	}
	p.check(checked > 0, "theorem 2: no query had an answer to check")
	return nil
}

// searchBody is a /search request.
func searchBody(q []uint32, theta float64) []byte {
	b, err := json.Marshal(map[string]any{"tokens": q, "theta": theta, "prefix_filter": true})
	if err != nil {
		panic(err) // a []uint32 and a float64 always marshal
	}
	return b
}

// post sends one JSON request and returns the status and body.
func post(c *http.Client, url, reqID string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(headerRequestID, reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stripped is a /search response without the fields that legitimately
// differ between equal answers: stats, cached and request_id.
func stripped(body []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	delete(m, "stats")
	delete(m, "cached")
	delete(m, "request_id")
	return json.Marshal(m)
}

// searchReply is the part of a /search response the checks read.
type searchReply struct {
	Matches []struct {
		TextID uint32 `json:"text_id"`
	} `json:"matches"`
	Stats struct {
		ShardsTotal    int `json:"shards_total"`
		ShardsAnswered int `json:"shards_answered"`
	} `json:"stats"`
}

// serverMetrics is the part of a server's JSON /metrics the benchmark
// reads.
type serverMetrics struct {
	Requests struct {
		Rejected int64 `json:"rejected"`
	} `json:"requests"`
	Cache struct {
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`
	Segments struct {
		Compactions int64 `json:"compactions"`
	} `json:"segments"`
	Index struct {
		Segments int `json:"segments"`
	} `json:"index"`
	Shards struct {
		Shards []struct {
			Replicas []struct {
				Retries int64 `json:"retries"`
				Hedges  int64 `json:"hedges"`
			} `json:"replicas"`
		} `json:"shards"`
	} `json:"shards"`
}

func scrape(c *http.Client, base string) (*serverMetrics, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: http %d", resp.StatusCode)
	}
	var m serverMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return &m, nil
}
