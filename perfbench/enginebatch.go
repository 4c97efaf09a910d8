package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gedlib"
	"gedlib/serve"
)

// engine-batch runs the library alone, on one goroutine, in a child
// process that receives only the generated files: the dense knowledge
// base, the rules, and the delta stream.

// engineSpec is the child's input.
type engineSpec struct {
	Graph   string  `json:"graph"`
	Rules   string  `json:"rules"`
	Deltas  string  `json:"deltas"`
	Seconds float64 `json:"seconds"`
	// Repeats is how many times set-up runs, ColdRepeats how many cold
	// Validates run across the window; the reported values are medians.
	Repeats     int `json:"repeats"`
	ColdRepeats int `json:"cold_repeats"`
	// Trace wraps every library call in a span and attaches an observer.
	Trace bool `json:"trace"`
}

// engineReport is the child's output.
type engineReport struct {
	Setup    []float64 `json:"setup_s"`    // LoadGraph + ParseRules, per repeat
	Validate []float64 `json:"validate_s"` // cold Engine.Validate, per sample
	// ValidateSpan is each cold Validate's start and end (Unix ns).
	ValidateSpan [][2]int64 `json:"validate_span"`
	Apply        []float64  `json:"apply_ms"`  // Engine.Apply, per delta
	ApplyEnd     []int64    `json:"apply_end"` // wall clock (Unix ns) each Apply returned
	Applied      int        `json:"applied"`   // deltas applied
	Failed       int        `json:"failed"`    // Applies that returned an error
	// CPU is the child's user+system CPU over the Apply stream, cold
	// Validates excluded.
	CPU float64 `json:"cpu_s"`
	RSS float64 `json:"rss_mb"`
	// ColdDigest and FinalDigest condense the cold Validate's and the
	// last Apply's violation sets (see digestKeys).
	ColdDigest  string `json:"cold_digest"`
	ColdCount   int    `json:"cold_count"`
	FinalDigest string `json:"final_digest"`
	FinalCount  int    `json:"final_count"`
	// Traced run only: spans by layer and the observer's scrapes
	// before the first Validate and after the last Apply.
	Spans  map[string][]float64 `json:"spans_ms,omitempty"`
	Before string               `json:"before,omitempty"`
	After  string               `json:"after,omitempty"`
}

const (
	engineRepeats = 3
	coldValidates = 15
)

func runEngineBatch(cfg config) (*outcome, error) {
	dir := filepath.Join(cfg.Work, "inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g := denseKB()
	data, err := gedlib.MarshalGraph(g)
	if err != nil {
		return nil, err
	}
	rulesSrc := engineRules()
	deltas := engineDeltas(cfg.Seed, g)
	spec := engineSpec{
		Graph: filepath.Join(dir, "graph.json"), Rules: filepath.Join(dir, "rules.ged"),
		Deltas: filepath.Join(dir, "deltas.json"), Seconds: float64(cfg.Seconds),
		Repeats: engineRepeats, ColdRepeats: coldValidates,
	}
	if err := os.WriteFile(spec.Graph, data, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(spec.Rules, []byte(rulesSrc), 0o644); err != nil {
		return nil, err
	}
	if _, err := writeJSONFile(dir, "deltas.json", deltas); err != nil {
		return nil, err
	}

	mon := startStealMonitor()
	rep, err := runEngineChild(cfg, spec)
	mon.Stop()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	if err := checkEngine(data, rulesSrc, deltas, rep); err != nil {
		out.problem("%v", err)
	}
	out.Attempted, out.Failed = rep.Applied, rep.Failed
	if !cfg.Trace {
		end := make([]time.Time, len(rep.ApplyEnd))
		for i, ns := range rep.ApplyEnd {
			end[i] = time.Unix(0, ns)
		}
		p50, p90, quiet := mon.quantiles(rep.Apply, end)
		out.Metrics["setup_s"] = median(rep.Setup)
		out.Metrics["ok_frac"] = ratio(float64(rep.Applied-rep.Failed), float64(rep.Applied))
		out.Metrics["p50_ms"], out.Metrics["p90_ms"] = p50, p90
		out.Metrics["cpu_us_per_req"] = ratio(rep.CPU*1e6, float64(rep.Applied))
		out.Metrics["rss_mb"] = rep.RSS
		spans := make([][2]time.Time, len(rep.ValidateSpan))
		for i, sp := range rep.ValidateSpan {
			spans[i] = [2]time.Time{time.Unix(0, sp[0]), time.Unix(0, sp[1])}
		}
		out.Metrics["cold_s"] = mon.quietMedian(rep.Validate, spans)
		out.Info["quiet_share"], out.Info["steal_share"] = quiet, mon.stealShare()
		out.Info["apply_p50_all_ms"] = percentile(rep.Apply, 0.5)
		out.Info["apply_p90_all_ms"] = percentile(rep.Apply, 0.9)
		out.Info["apply_p99_ms"] = percentile(rep.Apply, 0.99)
		out.Info["setup_samples_s"], out.Info["validate_samples_s"] = rep.Setup, rep.Validate
		out.Info["violations_cold"], out.Info["violations_final"] = rep.ColdCount, rep.FinalCount
		return out, nil
	}

	// Traced: rep is the untraced reference for the tracing overhead;
	// run the same inputs again with spans and the observer.
	spec.Trace = true
	traced, err := runEngineChild(cfg, spec)
	if err != nil {
		return nil, err
	}
	if err := checkEngine(data, rulesSrc, deltas, traced); err != nil {
		out.problem("traced: %v", err)
	}
	m := out.Metrics
	d := promDelta{before: parseProm(bytes.NewBufferString(traced.Before)), after: parseProm(bytes.NewBufferString(traced.After))}
	engineLayers(m, d)
	// The observer's histograms cover Apply and Validate too; the spans
	// time them from outside, which is what the layer table reports.
	m["engine.apply_us"] = mean(traced.Spans["engine.apply"]) * 1e3
	m["engine.validate_ms"] = mean(traced.Spans["engine.validate"])
	m["graph.load_ms"] = mean(traced.Spans["graph.load"])
	m["gedio.parse_ms"] = mean(traced.Spans["gedio.parse"])
	m["graph.freeze_ms"] = mean(traced.Spans["graph.freeze"])
	// The library spans have no children: each is all self time.
	self := map[string]float64{}
	for name, ds := range traced.Spans {
		layer, _, _ := strings.Cut(name, ".")
		for _, v := range ds {
			self[layer] += v
		}
	}
	for _, l := range layerNames {
		m["self_ms."+l] = self[l]
	}
	tracedP50, refP50 := percentile(traced.Apply, 0.5), percentile(rep.Apply, 0.5)
	m["trace.overhead_pct"] = 100 * ratio(tracedP50-refP50, refP50)
	out.Attempted, out.Failed = traced.Applied, traced.Failed
	out.Info["top_self_layer"] = topLayer(self)
	out.Info["traced_p50_ms"], out.Info["untraced_p50_ms"] = tracedP50, refP50
	return out, nil
}

// runEngineChild runs the library child on spec and decodes its report.
func runEngineChild(cfg config, spec engineSpec) (*engineReport, error) {
	specFile, err := writeJSONFile(cfg.Work, "engine-spec.json", spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.Self, "-role", "engine", "-spec", specFile)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("engine child: %w", err)
	}
	var rep engineReport
	if err := json.Unmarshal(stdout, &rep); err != nil {
		return nil, fmt.Errorf("engine child: %w", err)
	}
	return &rep, nil
}

// checkEngine compares the child's answers with the oracle: its cold
// Validate with a fresh Validate of the base graph, and its last Apply
// with a fresh Validate of the base graph plus the deltas it applied.
func checkEngine(graphJSON []byte, rulesSrc string, deltas [][]serve.Op, rep *engineReport) error {
	rules, err := gedlib.ParseRules(rulesSrc)
	if err != nil {
		return err
	}
	cold, err := oracleKeys(graphJSON, rules, nil)
	if err != nil {
		return err
	}
	if err := sameDigest("cold Validate", cold, rep.ColdDigest, rep.ColdCount); err != nil {
		return err
	}
	if rep.Applied > len(deltas) {
		return fmt.Errorf("applied %d deltas of %d", rep.Applied, len(deltas))
	}
	var ops []serve.Op
	for _, d := range deltas[:rep.Applied] {
		ops = append(ops, d...)
	}
	final, err := oracleKeys(graphJSON, rules, ops)
	if err != nil {
		return err
	}
	return sameDigest(fmt.Sprintf("Apply after %d deltas", rep.Applied), final, rep.FinalDigest, rep.FinalCount)
}

func sameDigest(what string, want []string, digest string, count int) error {
	if count != len(want) || digest != digestKeys(want) {
		return fmt.Errorf("%s: %d violations (digest %.12s), oracle has %d (digest %.12s)",
			what, count, digest, len(want), digestKeys(want))
	}
	return nil
}

// engineChild is the library process: set-up engineSpec.Repeats times,
// then the delta stream through Engine.Apply until the time is up or
// the deltas run out, with engineSpec.ColdRepeats cold Validates spread
// across it.
func engineChild(specFile string) int {
	if err := engineMain(specFile); err != nil {
		fmt.Fprintln(os.Stderr, "engine:", err)
		return 1
	}
	return 0
}

func engineMain(specFile string) error {
	var spec engineSpec
	if err := readJSON(specFile, &spec); err != nil {
		return err
	}
	data, err := os.ReadFile(spec.Graph)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(spec.Rules)
	if err != nil {
		return err
	}
	var deltas [][]serve.Op
	if err := readJSON(spec.Deltas, &deltas); err != nil {
		return err
	}
	rep := engineReport{}
	var obs *gedlib.Observer
	var opts []gedlib.Option
	if spec.Trace {
		rep.Spans = map[string][]float64{}
		obs = gedlib.NewObserver(nil)
		opts = append(opts, gedlib.WithObserver(obs))
	}
	// timed runs f and, when tracing, records its duration as a span.
	timed := func(name string, f func() error) (time.Duration, error) {
		start := time.Now()
		err := f()
		d := time.Since(start)
		if spec.Trace {
			rep.Spans[name] = append(rep.Spans[name], ms(d))
		}
		return d, err
	}
	ctx := context.Background()

	var (
		g       *gedlib.Graph
		names   map[string]gedlib.NodeID
		rules   gedlib.RuleSet
		coldCPU time.Duration
	)
	if spec.Trace {
		rep.Before = scrapeObserver(obs)
	}
	// Set-up, several times. Each phase starts from a collected heap,
	// as testing.B does, so garbage from the one before is not charged
	// to it.
	for r := 0; r < spec.Repeats; r++ {
		g, names, rules = nil, nil, nil
		runtime.GC()
		dl, err := timed("graph.load", func() (err error) {
			g, names, err = gedlib.LoadGraph(data)
			return err
		})
		if err != nil {
			return err
		}
		dp, err := timed("gedio.parse", func() (err error) {
			rules, err = gedlib.ParseRules(string(src))
			return err
		})
		if err != nil {
			return err
		}
		rep.Setup = append(rep.Setup, (dl + dp).Seconds())
	}
	if spec.Trace {
		runtime.GC()
		timed("graph.freeze", func() error { gedlib.New().SnapshotOf(g); return nil })
	}
	// Seed the maintained store, then stream the deltas. Between blocks
	// of the stream runs a cold Validate of the current graph on a fresh
	// engine (freeze, plan compilation and the full match), so the cold
	// samples spread over the window as the Apply samples do and a slow
	// stretch of the machine moves both medians alike. The first runs
	// on the base graph, the one the oracle checks.
	eng := gedlib.New(opts...)
	vs, err := eng.Apply(ctx, g, rules)
	if err != nil {
		return err
	}
	cold := func() error {
		c0, err := cpuTime(os.Getpid())
		if err != nil {
			return err
		}
		runtime.GC()
		var cvs []gedlib.Violation
		t0 := time.Now()
		dv, err := timed("engine.validate", func() (err error) {
			cvs, err = gedlib.New(opts...).Validate(ctx, g, rules)
			return err
		})
		if err != nil {
			return err
		}
		if len(rep.Validate) == 0 {
			keys := libKeys(cvs, invert(names))
			rep.ColdDigest, rep.ColdCount = digestKeys(keys), len(keys)
		}
		rep.Validate = append(rep.Validate, dv.Seconds())
		rep.ValidateSpan = append(rep.ValidateSpan, [2]int64{t0.UnixNano(), t0.Add(dv).UnixNano()})
		// Collect the cold engine before the stream resumes, so its
		// garbage is not charged to the next Applies.
		cvs = nil
		runtime.GC()
		c1, err := cpuTime(os.Getpid())
		coldCPU += c1 - c0
		return err
	}
	start := time.Now()
	window := time.Duration(spec.Seconds * float64(time.Second))
	block := window / time.Duration(spec.ColdRepeats)
	cpu0, err := cpuTime(os.Getpid())
	if err != nil {
		return err
	}
	for _, d := range deltas {
		elapsed := time.Since(start)
		if elapsed >= window {
			break
		}
		if elapsed >= time.Duration(len(rep.Validate))*block {
			if err := cold(); err != nil {
				return err
			}
		}
		if err := applyOps(g, names, d); err != nil {
			return err
		}
		rep.Applied++
		da, err := timed("engine.apply", func() (err error) {
			vs, err = eng.Apply(ctx, g, rules)
			return err
		})
		if err != nil {
			rep.Failed++
			continue
		}
		rep.Apply = append(rep.Apply, ms(da))
		rep.ApplyEnd = append(rep.ApplyEnd, time.Now().UnixNano())
	}
	cpu1, err := cpuTime(os.Getpid())
	if err != nil {
		return err
	}
	rep.CPU = (cpu1 - cpu0 - coldCPU).Seconds()
	if spec.Trace {
		rep.After = scrapeObserver(obs)
	}
	keys := libKeys(vs, invert(names))
	rep.FinalDigest, rep.FinalCount = digestKeys(keys), len(keys)
	if rep.RSS, err = peakRSS(os.Getpid()); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func scrapeObserver(o *gedlib.Observer) string {
	var b bytes.Buffer
	o.Registry().WritePrometheus(&b)
	return b.String()
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
