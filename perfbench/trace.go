package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gedlib"
	"gedlib/persist"
	"gedlib/serve"
)

// The traced serving run hosts serve.NewServer in this process behind a
// middleware that records a span around Handler().ServeHTTP, a child of
// the generator's request span (the X-Request-Id header carries the
// request's index). Each read is then replayed against its entry's
// current view, to time serve's view load and internal/reason's
// TouchingCtx from outside. Flush-stage, engine, matcher and persist numbers are deltas
// of the catalog's registry between the generator's "warm" and "done".

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu     sync.Mutex
	spans  []span
	allocs map[string]uint64 // bytes allocated while serving, by request id
}

func (r *recorder) add(s ...span) {
	r.mu.Lock()
	r.spans = append(r.spans, s...)
	r.mu.Unlock()
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// tracedHandler is the benchmark's middleware around the server.
type tracedHandler struct {
	next http.Handler
	cat  *serve.Catalog
	rec  *recorder
}

// route splits /graphs/{name}/{route}; ok is false for other paths.
func route(path string) (name, op string, ok bool) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) != 3 || parts[0] != "graphs" {
		return "", "", false
	}
	return parts[1], parts[2], true
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-Id")
	name, op, ok := route(r.URL.Path)
	if id == "" || !ok {
		t.next.ServeHTTP(w, r)
		return
	}
	var body []byte
	if r.Body != nil && op == "validate" {
		body, _ = io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	handler := "serve." + op
	a0 := heapAllocs()
	start := time.Now()
	t.next.ServeHTTP(w, r)
	end := time.Now()
	a1 := heapAllocs()
	spans := []span{{ID: id, Name: handler, Parent: "gen", Start: start, End: end}}
	if op != "mutate" {
		spans = append(spans, t.replay(id, handler, name, op, body)...)
	}
	t.rec.add(spans...)
	t.rec.mu.Lock()
	t.rec.allocs[id] = a1 - a0
	t.rec.mu.Unlock()
}

// replay re-runs the read's view load, and for a validate its
// TouchingCtx, against the entry's current view, timing each.
func (t *tracedHandler) replay(id, parent, name, op string, body []byte) []span {
	v0 := time.Now()
	ent, err := t.cat.Get(name)
	if err != nil {
		return nil
	}
	view := ent.CurrentView()
	v1 := time.Now()
	out := []span{{ID: id, Name: "serve.view", Parent: parent, Start: v0, End: v1}}
	if op != "validate" {
		return out
	}
	var req struct {
		Nodes []string `json:"nodes"`
		Limit int      `json:"limit"`
	}
	if json.Unmarshal(body, &req) != nil {
		return out
	}
	ids := make([]gedlib.NodeID, 0, len(req.Nodes))
	for _, n := range req.Nodes {
		if nid, ok := view.Names.Resolve(n); ok {
			ids = append(ids, nid)
		}
	}
	t0 := time.Now()
	_, _ = view.Val.TouchingCtx(context.Background(), ids, req.Limit)
	return append(out, span{ID: id, Name: "reason.touching", Parent: parent, Start: t0, End: time.Now()})
}

// prom is one parsed Prometheus text scrape: sample value by series
// ("name{labels}").
type prom map[string]float64

func parseProm(r io.Reader) prom {
	p := prom{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		p[line[:i]] = v
	}
	return p
}

// sum adds the series of metric name whose labels include every
// label="value" pair in want.
func (p prom) sum(name string, want ...string) float64 {
	var total float64
	for series, v := range p {
		base, labels, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		match := true
		for _, w := range want {
			if !strings.Contains(labels, w) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta is after minus before, for one metric.
type promDelta struct{ before, after prom }

func (d promDelta) sum(name string, want ...string) float64 {
	return d.after.sum(name, want...) - d.before.sum(name, want...)
}

// meanOf is a histogram's mean over the window, in seconds.
func (d promDelta) meanOf(name string, want ...string) float64 {
	return ratio(d.sum(name+"_sum", want...), d.sum(name+"_count", want...))
}

// registryLayers fills the per-layer metrics that come from registry
// deltas: flush stages, batcher, persist, engine and matcher.
func registryLayers(m map[string]float64, d promDelta, ackedWrites int) {
	const stage = "ged_serve_flush_stage_seconds"
	m["batcher.queue_wait_us"] = d.meanOf(stage, `stage="queue_wait"`) * 1e6
	m["persist.wal_append_us"] = d.meanOf(stage, `stage="wal_append"`) * 1e6
	m["persist.fsync_us"] = d.meanOf(stage, `stage="fsync"`) * 1e6
	m["serve.publish_us"] = d.meanOf(stage, `stage="publish"`) * 1e6
	flushes := d.sum("ged_serve_flushes_total")
	ops := d.sum("ged_serve_flushed_ops_total")
	m["batcher.flushes"] = flushes
	m["batcher.reqs_per_flush"] = ratio(d.sum("ged_serve_flushed_reqs_total"), flushes)
	m["batcher.ops_per_flush"] = ratio(ops, flushes)
	m["batcher.queue_full"] = d.sum("ged_serve_rejected_writes_total")
	m["serve.rejected"] = d.sum("ged_serve_requests_rejected_total")
	m["persist.fsyncs_per_write"] = ratio(d.sum("ged_wal_fsync_seconds_count"), float64(ackedWrites))
	m["persist.wal_bytes_per_op"] = ratio(d.sum("ged_wal_bytes_total"), ops)
	m["persist.checkpoints"] = d.sum("ged_checkpoints_total")
	m["persist.checkpoint_ms"] = d.meanOf("ged_checkpoint_seconds") * 1e3
	engineLayers(m, d)
}

// engineLayers fills the engine and matcher metrics from registry
// deltas; the library workload reads the same series from its observer.
func engineLayers(m map[string]float64, d promDelta) {
	const cache = "ged_engine_snapshot_cache_total"
	hit := d.sum(cache, `outcome="hit"`)
	all := hit + d.sum(cache, `outcome="advance"`) + d.sum(cache, `outcome="freeze"`)
	m["engine.apply_us"] = d.meanOf("ged_engine_apply_seconds") * 1e6
	m["engine.validate_ms"] = d.meanOf("ged_engine_validate_seconds") * 1e3
	m["engine.snapshot_hit_ratio"] = ratio(hit, all)
	m["engine.freezes"] = d.sum(cache, `outcome="freeze"`)
	m["engine.store_rechecks"] = d.sum("ged_engine_store_rechecks_total")
	m["match.candidates"] = d.sum("ged_match_candidates_total")
	m["match.bindings"] = d.sum("ged_match_bindings_total")
	m["match.useful_ratio"] = ratio(m["match.bindings"], m["match.candidates"])
	m["match.intersect_steps"] = d.sum("ged_match_intersect_steps_total")
	m["match.probe_steps"] = d.sum("ged_match_probe_steps_total")
}

// setupLayers times the graph, gedio and freeze layers on the run's
// input files by calling their public entry points directly.
func setupLayers(m map[string]float64, files []string, rulesSrc string) error {
	var load, parse, freeze time.Duration
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		t0 := time.Now()
		g, _, err := gedlib.LoadGraph(data)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := gedlib.ParseRules(rulesSrc); err != nil {
			return err
		}
		t2 := time.Now()
		g.Freeze()
		t3 := time.Now()
		load, parse, freeze = load+t1.Sub(t0), parse+t2.Sub(t1), freeze+t3.Sub(t2)
	}
	m["graph.load_ms"], m["gedio.parse_ms"], m["graph.freeze_ms"] = ms(load), ms(parse), ms(freeze)
	return nil
}

// scrape renders the server's /metricsz in process.
func scrape(h http.Handler) prom {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	return parseProm(rec.Body)
}

// topLayer is the layer with the most self time.
func topLayer(self map[string]float64) string {
	best := ""
	for _, l := range layerNames {
		if best == "" || self[l] > self[best] {
			best = l
		}
	}
	return best
}

// runServingTraced runs the untraced pass (for the tracing overhead),
// then the same seed and schedule against an in-process server with
// spans at every layer boundary.
func runServingTraced(cfg config, w servingWorkload, in servingInputs) (*outcome, error) {
	ref, err := runServingUntraced(cfg, w, in)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.Rate, out.Conns = w.Rate, conns
	out.Problems = append(out.Problems, ref.Problems...)
	m := out.Metrics

	rulesSrc, err := os.ReadFile(in.Rules)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, t := range in.Tenants {
		files = append(files, t.File)
	}
	if err := setupLayers(m, files, string(rulesSrc)); err != nil {
		return nil, err
	}

	scfg := serve.Config{}
	if w.Durable {
		scfg.DataDir = filepath.Join(cfg.Work, "traced-data")
	}
	srv, err := serve.NewServer(scfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cat := srv.Catalog()
	for _, t := range in.Tenants {
		data, err := os.ReadFile(t.File)
		if err != nil {
			return nil, err
		}
		ent, err := cat.Create(t.Name, data)
		if err != nil {
			return nil, err
		}
		if _, err := ent.RegisterRules(context.Background(), string(rulesSrc)); err != nil {
			return nil, err
		}
	}
	rec := &recorder{allocs: map[string]uint64{}}
	th := &tracedHandler{next: srv.Handler(), cat: cat, rec: rec}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: th}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	var d promDelta
	run, err := runGenerator(cfg, w.spec(cfg, "http://"+ln.Addr().String(), in),
		func() { d.before = scrape(srv.Handler()) },
		func() { d.after = scrape(srv.Handler()) })
	if err != nil {
		return nil, err
	}
	st := run.stats()
	out.Attempted, out.Failed = st.Attempted, st.Failed
	out.Problems = append(out.Problems, st.honesty(w.Rate)...)
	registryLayers(m, d, st.WritesOK)
	m["gen.late_p99_ms"] = st.LateP99
	m["gen.backlog_max"] = float64(st.BacklogMax)

	got, err := fetchAllInProcess(srv.Handler(), in.names())
	if err != nil {
		return nil, err
	}
	if err := checkOracle(in, run, got); err != nil {
		out.problem("traced: %v", err)
	}
	if w.Durable {
		replay, err := timeReplay(scfg.DataDir, filepath.Join(cfg.Work, "replay-copy"), got)
		if err != nil {
			out.problem("traced replay: %v", err)
		}
		m["persist.replay_ms"] = ms(replay)
	}

	self := spanLayers(m, run, rec, d)
	for _, l := range layerNames {
		m["self_ms."+l] = self[l]
	}
	head, refHead := st.Read, ref.Info["p50_all_ms"].(float64)
	if w.ReadFrac < 1 {
		head = st.Write
	}
	m["trace.overhead_pct"] = 100 * ratio(percentile(head, 0.5)-refHead, refHead)
	out.Info["top_self_layer"] = topLayer(self)
	out.Info["traced_p50_ms"], out.Info["untraced_p50_ms"] = percentile(head, 0.5), refHead
	out.Info["spans"] = len(rec.spans)
	return out, nil
}

// spanLayers computes the handler and replay metrics from the recorded
// spans of the measured window and charges self time to layers (in ms).
// A write's handler span has no child spans of its own: its flush is
// charged, per request, as the flush's stage times times the requests
// per flush, and the handler keeps what remains.
func spanLayers(m map[string]float64, run *loadRun, rec *recorder, d promDelta) map[string]float64 {
	warm := time.Duration(run.Spec.Warmup * float64(time.Second))
	measured := map[string]bool{}
	var all []span
	for i, r := range run.Reqs {
		if r.Due < warm || run.Res.Status[i] != http.StatusOK {
			continue
		}
		id := strconv.Itoa(i)
		measured[id] = true
		t0 := time.Unix(0, 0)
		all = append(all, span{ID: id, Name: "gen", Start: t0.Add(time.Duration(run.Res.Sent[i])), End: t0.Add(time.Duration(run.Res.Done[i]))})
	}
	byID := map[string][]span{}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, s := range rec.spans {
		if measured[s.ID] {
			all = append(all, s)
		}
	}
	for _, s := range all {
		byID[s.ID] = append(byID[s.ID], s)
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	self := map[string]float64{}
	handler := map[string][]float64{}
	var view, touching, readSelf, allocs []float64
	var mutateSelf float64
	for _, id := range ids {
		spans := byID[id]
		for _, s := range spans {
			switch {
			case s.Name == "gen":
				self["net"] += ms(selfTime(s, spans))
			case s.Name == "serve.view":
				view = append(view, us(s.Dur()))
				self["serve"] += ms(s.Dur())
			case s.Name == "reason.touching":
				touching = append(touching, us(s.Dur()))
				self["reason"] += ms(s.Dur())
			case strings.HasPrefix(s.Name, "serve."):
				op := strings.TrimPrefix(s.Name, "serve.")
				handler[op] = append(handler[op], us(s.Dur()))
				if op == "mutate" {
					mutateSelf += ms(s.Dur())
					continue
				}
				self["serve"] += ms(selfTime(s, spans))
				readSelf = append(readSelf, us(selfTime(s, spans)))
				allocs = append(allocs, float64(rec.allocs[id]))
			}
		}
	}
	for _, op := range []string{"violations", "validate", "stats", "mutate"} {
		m["serve.handler_us."+op] = mean(handler[op])
	}
	m["serve.view_us"] = mean(view)
	m["reason.touching_us"] = mean(touching)
	m["serve.read_self_us"] = mean(readSelf)
	m["serve.alloc_bytes_per_read"] = mean(allocs)

	const stage = "ged_serve_flush_stage_seconds_sum"
	perReq := 1e3 * m["batcher.reqs_per_flush"] // seconds per flush → ms per request
	charge := func(layer string, stages ...string) {
		for _, st := range stages {
			v := d.sum(stage, `stage="`+st+`"`) * perReq
			self[layer] += v
			mutateSelf -= v
		}
	}
	charge("batcher", "queue_wait")
	charge("persist", "wal_append", "fsync")
	charge("engine", "apply")
	charge("serve", "publish")
	if mutateSelf > 0 {
		self["serve"] += mutateSelf
	}
	return self
}

// fetchAllInProcess reads every tenant's state through the handler.
func fetchAllInProcess(h http.Handler, names []string) (map[string]tenantState, error) {
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := srv.Client()
	defer client.CloseIdleConnections()
	return fetchAll(client, srv.URL, names)
}

// timeReplay copies a live data directory (what kill -9 would leave)
// and times persist.Open plus Store.OpenGraph of every graph on the
// copy, checking each recovers the served version.
func timeReplay(src, dst string, want map[string]tenantState) (time.Duration, error) {
	if err := copyTree(src, dst); err != nil {
		return 0, err
	}
	start := time.Now()
	store, err := persist.Open(dst, persist.Options{})
	if err != nil {
		return 0, err
	}
	names, err := store.Graphs()
	if err != nil {
		return 0, err
	}
	var stores []*persist.GraphStore
	var problem error
	for _, n := range names {
		gs, rec, err := store.OpenGraph(n)
		if err != nil {
			return 0, err
		}
		stores = append(stores, gs)
		if v := rec.State.Graph.Version(); problem == nil && v != want[n].Version {
			problem = fmt.Errorf("%s: replayed to version %d, served %d", n, v, want[n].Version)
		}
	}
	elapsed := time.Since(start)
	for _, gs := range stores {
		gs.Close()
	}
	if problem == nil && len(names) != len(want) {
		problem = fmt.Errorf("replayed %d graphs, served %d", len(names), len(want))
	}
	return elapsed, problem
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode().Perm())
	})
}
