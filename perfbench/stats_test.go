package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 || xs[1] != 1 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) (time.Time, time.Time) {
		return t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)
	}
	mk := func(id, name, parent string, a, b int) span {
		s, e := at(a, b)
		return span{ID: id, Name: name, Parent: parent, Start: s, End: e}
	}
	client := mk("1", "gen", "", 0, 10)
	handler := mk("1", "serve.validate", "gen", 1, 9)
	view := mk("1", "serve.view", "serve.validate", 9, 10)
	touching := mk("1", "reason.touching", "serve.validate", 10, 13)
	other := mk("2", "serve.validate", "gen", 0, 5) // another request
	all := []span{client, handler, view, touching, other}

	if got := selfTime(client, all); got != 2*time.Millisecond {
		t.Errorf("client self = %v, want 2ms (10 minus the 8ms handler)", got)
	}
	// The replayed children run after the handler returned; they are
	// still charged against it.
	if got := selfTime(handler, all); got != 4*time.Millisecond {
		t.Errorf("handler self = %v, want 4ms (8 minus 1 minus 3)", got)
	}
	if got := selfTime(touching, all); got != 3*time.Millisecond {
		t.Errorf("leaf self = %v, want its 3ms duration", got)
	}
	big := mk("1", "serve.view", "serve.validate", 0, 20)
	if got := selfTime(handler, []span{handler, big}); got != 0 {
		t.Errorf("self time with oversized children = %v, want floor 0", got)
	}
}

func TestMetricNameCharset(t *testing.T) {
	if err := checkNames(append(append([]metricDef(nil), endToEnd...), perLayer...)); err != nil {
		t.Fatalf("the benchmark's own metrics: %v", err)
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "p50ms!", strings.Repeat("a", 65)} {
		if checkNames([]metricDef{{bad, "ms"}}) == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"p50_ms", "serve.handler_us.mutate", "9lives", "a-b", strings.Repeat("a", 64)} {
		if err := checkNames([]metricDef{{good, "ms"}}); err != nil {
			t.Errorf("name %q rejected: %v", good, err)
		}
	}
	if checkNames([]metricDef{{"x", "ms"}, {"x", "s"}}) == nil {
		t.Error("repeated name accepted")
	}
	if checkNames([]metricDef{{"x", "m s"}}) == nil {
		t.Error("unit with a space accepted")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the harness prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
}

func TestLoadStatsLatenessAndBacklog(t *testing.T) {
	// Four requests at 10/s, no warm-up: due at 0, 100, 200, 300ms.
	spec := genSpec{Rate: 10, Seconds: 0.4, Tenants: []string{"t"}, Nodes: []int{10}, ReadFrac: 1}
	run := &loadRun{Spec: spec, Reqs: schedule(spec)}
	if len(run.Reqs) != 4 {
		t.Fatalf("schedule has %d requests, want 4", len(run.Reqs))
	}
	msd := func(v int) int64 { return int64(time.Duration(v) * time.Millisecond) }
	// A stall holds the third request until 500ms, 300ms after it was
	// due; the fourth goes out right behind it.
	run.Res = genResult{
		Sent:   []int64{msd(0), msd(100), msd(500), msd(501)},
		Done:   []int64{msd(5), msd(105), msd(510), msd(520)},
		Status: []int{200, 200, 200, 503},
	}
	st := run.stats()
	if st.Attempted != 4 || st.Failed != 1 || st.ReadsOK != 3 {
		t.Fatalf("attempted/failed/ok = %d/%d/%d, want 4/1/3", st.Attempted, st.Failed, st.ReadsOK)
	}
	if got := st.Read[2]; got != 310 {
		t.Errorf("late request latency = %vms, want 310 (from due, not from send)", got)
	}
	if st.LateP99 != 300 {
		t.Errorf("late p99 = %vms, want 300", st.LateP99)
	}
	if st.BacklogMax != 1 {
		t.Errorf("backlog max = %d, want 1 (the fourth was due when the third went out)", st.BacklogMax)
	}
	if problems := st.honesty(spec.Rate); len(problems) == 0 {
		t.Error("a send 300ms late passed the honesty check")
	}
	ok := loadStats{LateP50: 0.1, LateP99: 5, BacklogEnd: 0}
	if problems := ok.honesty(1000); len(problems) != 0 {
		t.Errorf("an on-time run failed the honesty check: %v", problems)
	}
	grown := loadStats{LateP50: 0.1, LateP99: 5, BacklogEnd: 1000}
	if problems := grown.honesty(1000); len(problems) == 0 {
		t.Error("a run ending 1s of schedule behind passed the honesty check")
	}
}

func TestPromDelta(t *testing.T) {
	before := parseProm(strings.NewReader(`# TYPE ged_x_seconds histogram
ged_x_seconds_sum{graph="a",stage="fsync"} 1
ged_x_seconds_count{graph="a",stage="fsync"} 2
ged_x_seconds_sum{graph="b",stage="apply"} 7
ged_x_seconds_count{graph="b",stage="apply"} 1
ged_flushes_total{graph="a"} 3
`))
	after := parseProm(strings.NewReader(`ged_x_seconds_sum{graph="a",stage="fsync"} 4
ged_x_seconds_count{graph="a",stage="fsync"} 5
ged_x_seconds_sum{graph="b",stage="fsync"} 2
ged_x_seconds_count{graph="b",stage="fsync"} 1
ged_x_seconds_sum{graph="b",stage="apply"} 9
ged_x_seconds_count{graph="b",stage="apply"} 2
ged_flushes_total{graph="a"} 5
ged_flushes_total_extra 100
`))
	d := promDelta{before: before, after: after}
	if got := d.sum("ged_flushes_total"); got != 2 {
		t.Errorf("counter delta = %v, want 2", got)
	}
	if got := d.meanOf("ged_x_seconds", `stage="fsync"`); got != 1.25 {
		t.Errorf("fsync mean = %v, want (3+2)/(3+1) = 1.25", got)
	}
	if got := d.meanOf("ged_x_seconds", `stage="apply"`); got != 2 {
		t.Errorf("apply mean = %v, want 2", got)
	}
}

func TestStealMonitorQuietSelection(t *testing.T) {
	t0 := time.Unix(1000, 0)
	slice := func(k int) time.Time { return t0.Add(time.Duration(k) * stealSlice) }
	// Ten slices ending at t0+1..t0+10 slices; the fourth and fifth
	// (ending at slices 4 and 5) lost 5 ticks each, the rest nothing.
	m := &stealMonitor{}
	for k := 1; k <= 10; k++ {
		m.ends = append(m.ends, slice(k))
		var st int64
		if k == 4 || k == 5 {
			st = 5
		}
		m.steal = append(m.steal, st)
	}
	mid := func(k int) time.Time { return slice(k).Add(-stealSlice / 2) }
	quiet := func(t time.Time) bool { i := m.slice(t); return i >= 0 && m.steal[i] <= quietTicks }
	if !quiet(mid(2)) || quiet(mid(4)) || quiet(mid(5)) || !quiet(mid(6)) {
		t.Error("quiet misplaced a sample")
	}
	if quiet(t0.Add(-time.Second)) || quiet(slice(11)) {
		t.Error("a time outside the sampled span counted as quiet")
	}
	if m.spanSteal(mid(2), mid(3)) != 0 || m.spanSteal(mid(3), mid(4)) != 5 || m.spanSteal(mid(6), mid(9)) != 0 {
		t.Error("spanSteal misjudged a span")
	}
	if m.spanSteal(t0.Add(-time.Second), mid(2)) != -1 || m.spanSteal(mid(9), slice(11)) != -1 {
		t.Error("a span leaving the sampled span got a steal count")
	}
	// Samples in noisy slices are slow; the quiet quantiles skip them
	// once at least minQuiet quiet samples exist.
	var xs []float64
	var at []time.Time
	for i := 0; i < 2*minQuiet; i++ {
		k := 2 + i%8 // slices 2..9
		x := 1.0
		if k == 4 || k == 5 {
			x = 50
		}
		xs, at = append(xs, x), append(at, mid(k))
	}
	p50, p90, share := m.quantiles(xs, at)
	if p50 != 1 || p90 != 1 || share != 0.75 {
		t.Errorf("quiet quantiles = %v/%v share %v, want 1/1 share 0.75", p50, p90, share)
	}
	if p50, p90, _ := m.quantiles(xs[:8], at[:8]); p90 != 50 || p50 != 1 {
		t.Errorf("with too few quiet samples got %v/%v, want all-sample quantiles 1/50", p50, p90)
	}
	spans := [][2]time.Time{{mid(2), mid(2)}, {mid(4), mid(4)}, {mid(6), mid(7)}, {mid(8), mid(8)}, {mid(5), mid(5)}}
	if got := m.quietMedian([]float64{1, 9, 2, 3, 9}, spans); got != 2 {
		t.Errorf("quietMedian = %v, want 2 (median of the quiet 1, 2, 3)", got)
	}
	noisy := [][2]time.Time{spans[0], spans[1], spans[4]}
	if got := m.quietMedian([]float64{1, 9, 8}, noisy); got != 8 {
		t.Errorf("quietMedian with one quiet repeat = %v, want the median of all, 8", got)
	}
}

func TestStealLimitWidens(t *testing.T) {
	cases := []struct {
		steals []int64
		need   int
		limit  int64
		ok     bool
	}{
		{[]int64{0, 1, 9, 9}, 2, quietTicks, true},    // enough quiet ones
		{[]int64{0, 7, 3, 9, 5}, 3, 5, true},          // widened to the third least
		{[]int64{-1, 2, -1, 4}, 2, 4, true},           // unsampled ones never count
		{[]int64{-1, 2, -1}, 2, 0, false},             // too few sampled
		{[]int64{0, 0}, 0, 0, false},                  // nothing to stand on
		{[]int64{3, 3, 3}, 3, 3, true},                // ties admitted together
		{[]int64{1, 0, 0, 0, 0}, 1, quietTicks, true}, // never below quietTicks
	}
	for _, c := range cases {
		limit, ok := stealLimit(c.steals, c.need)
		if limit != c.limit || ok != c.ok {
			t.Errorf("stealLimit(%v, %d) = %d, %v; want %d, %v", c.steals, c.need, limit, ok, c.limit, c.ok)
		}
	}

	// No slice is quiet: the quantiles stand on the less stolen half.
	t0 := time.Unix(1000, 0)
	m := &stealMonitor{}
	for k := 1; k <= 10; k++ {
		m.ends = append(m.ends, t0.Add(time.Duration(k)*stealSlice))
		m.steal = append(m.steal, int64(3+4*(k%2))) // 7 on odd slices, 3 on even
	}
	var xs []float64
	var at []time.Time
	for i := 0; i < 2*minQuiet; i++ {
		k := 2 + i%8
		x := 2.0
		if k%2 == 1 {
			x = 50
		}
		xs, at = append(xs, x), append(at, m.ends[k-1].Add(-stealSlice/2))
	}
	if p50, p90, share := m.quantiles(xs, at); p50 != 2 || p90 != 2 || share != 0 {
		t.Errorf("widened quantiles = %v/%v share %v, want 2/2 share 0", p50, p90, share)
	}
	spans := [][2]time.Time{{at[0], at[0]}, {at[1], at[1]}, {at[2], at[2]}, {at[3], at[3]}, {at[4], at[4]}}
	if got := m.quietMedian([]float64{4, 90, 6, 80, 1}, spans); got != 4 {
		t.Errorf("widened quietMedian = %v, want 4 (median of 4, 6, 1 from the 3-tick slices)", got)
	}
}

func TestCPUPerReqQuietSlices(t *testing.T) {
	// 40 slices; every third lost 5 ticks and cost the server 40 ms of
	// CPU, the others lost nothing and cost 10 ms. Each slice answered
	// 10 requests.
	t0 := time.Unix(1000, 0)
	m := &stealMonitor{}
	var cpu time.Duration
	var done []time.Time
	for k := 0; k < 40; k++ {
		end := t0.Add(time.Duration(k) * stealSlice)
		var st int64
		if k > 0 {
			if k%3 == 0 {
				st, cpu = 5, cpu+40*time.Millisecond
			} else {
				cpu += 10 * time.Millisecond
			}
			for r := 0; r < 10; r++ {
				done = append(done, end.Add(-stealSlice/2))
			}
		}
		m.ends, m.steal, m.cpu = append(m.ends, end), append(m.steal, st), append(m.cpu, cpu)
	}
	got, ok := m.cpuPerReq(done, m.ends[0], m.ends[39])
	if !ok || got != 1000 {
		t.Errorf("cpuPerReq = %v, %v; want 1000 µs (10 ms over 10 requests), true", got, ok)
	}
	// Unwatched slices never count: with the first 15 slices unwatched,
	// too few quiet ones remain, so the 5-tick slices are admitted.
	for k := 0; k < 15; k++ {
		m.cpu[k] = -1
	}
	if got, ok := m.cpuPerReq(done, m.ends[0], m.ends[39]); !ok || got != 2000 {
		t.Errorf("cpuPerReq widened = %v, %v; want 2000 µs ((16*10+8*40) ms over 240 requests), true", got, ok)
	}
	if _, ok := m.cpuPerReq(done, m.ends[20], m.ends[30]); ok {
		t.Error("cpuPerReq stood on fewer than minQuietSlices slices")
	}
}
