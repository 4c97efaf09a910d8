// Command perfbench is the repository benchmark. One invocation runs one
// workload on inputs generated from a seed, checks the program's
// outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload read-mix --seed 1 --seconds 10 --trace 0
//
// run.sh builds cmd/gedserve and this harness from the surrounding
// source tree into .bench_build/ and then runs the harness. Workloads:
//
//	read-mix       in-memory gedserve, 3 tenants, 100% reads, open loop
//	write-durable  gedserve -data, 24 tenants, 50/50 reads and writes,
//	               ended by kill -9 and restarts on the same directory
//	engine-batch   the library alone in a child process: cold Validate,
//	               then a stream of localized deltas through Engine.Apply
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same seed and schedule run again with spans around every
// layer boundary and the result carries the per-layer metrics. See
// README.md beside this file.
package main

import (
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
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload. p50_ms and p90_ms time each workload's
// defining operation (read-mix: a read; write-durable: a write, due to
// ack; engine-batch: one Engine.Apply) over the slices the host left
// alone (see stealMonitor); cold_s is its cold path (read-mix: relaunch
// after kill -9; write-durable: recovery after kill -9; engine-batch: a
// cold Engine.Validate).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_frac", "ratio"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_us_per_req", "us"},
	{"rss_mb", "MB"},
	{"cold_s", "s"},
}

// layerNames are the layers self time is charged to in a traced run.
var layerNames = []string{"net", "serve", "reason", "batcher", "persist", "engine", "graph", "gedio"}

// perLayer are the metrics of single layers, printed by every traced
// run. A layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.handler_us.violations", "us"},
		{"serve.handler_us.validate", "us"},
		{"serve.handler_us.stats", "us"},
		{"serve.handler_us.mutate", "us"},
		{"serve.view_us", "us"},
		{"serve.read_self_us", "us"},
		{"serve.alloc_bytes_per_read", "B"},
		{"serve.rejected", "count"},
		{"serve.publish_us", "us"},
		{"batcher.queue_wait_us", "us"},
		{"batcher.reqs_per_flush", "count"},
		{"batcher.ops_per_flush", "count"},
		{"batcher.flushes", "count"},
		{"batcher.queue_full", "count"},
		{"persist.wal_append_us", "us"},
		{"persist.fsync_us", "us"},
		{"persist.fsyncs_per_write", "ratio"},
		{"persist.wal_bytes_per_op", "B"},
		{"persist.checkpoints", "count"},
		{"persist.checkpoint_ms", "ms"},
		{"persist.replay_ms", "ms"},
		{"engine.apply_us", "us"},
		{"engine.validate_ms", "ms"},
		{"engine.snapshot_hit_ratio", "ratio"},
		{"engine.freezes", "count"},
		{"engine.store_rechecks", "count"},
		{"reason.touching_us", "us"},
		{"match.candidates", "count"},
		{"match.bindings", "count"},
		{"match.useful_ratio", "ratio"},
		{"match.intersect_steps", "count"},
		{"match.probe_steps", "count"},
		{"graph.load_ms", "ms"},
		{"gedio.parse_ms", "ms"},
		{"graph.freeze_ms", "ms"},
		{"gen.late_p99_ms", "ms"},
		{"gen.backlog_max", "count"},
		{"trace.overhead_pct", "%"},
	}
	for _, l := range layerNames {
		defs = append(defs, metricDef{"self_ms." + l, "ms"})
	}
	return defs
}()

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Root     string // repository root: the source tree and .bench_build
	Work     string // this run's scratch directory, removed at exit
	Gedserve string // the built gedserve binary
	Self     string // this binary, re-executed for child roles
}

// outcome is what a workload run reports back to main.
type outcome struct {
	Attempted int
	Failed    int
	// Metrics holds the end-to-end (untraced) or per-layer (traced)
	// values by name.
	Metrics map[string]float64
	// Problems are failed output checks and generator-honesty
	// violations; any makes the run incorrect.
	Problems []string
	// Info is diagnostic detail for the report line.
	Info map[string]any
	// Rate and Conns describe the offered load (0 for the library
	// workload).
	Rate  float64
	Conns int
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]float64{}, Info: map[string]any{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"read-mix":      runReadMix,
	"write-durable": runWriteDurable,
	"engine-batch":  runEngineBatch,
}

func main() {
	role := flag.String("role", "", "child role: gen or engine (set by the harness itself)")
	spec := flag.String("spec", "", "child input file or directory (set by the harness itself)")
	wl := flag.String("workload", "", "workload: read-mix, write-durable or engine-batch")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	root := flag.String("root", ".", "repository root")
	bin := flag.String("bin", "", "directory holding the built gedserve (default <root>/.bench_build)")
	flag.Parse()

	switch *role {
	case "gen":
		os.Exit(genChild(*spec))
	case "engine":
		os.Exit(engineChild(*spec))
	case "":
	default:
		fatalf("unknown -role %q", *role)
	}

	run, ok := workloads[*wl]
	if !ok {
		fatalf("unknown --workload %q", *wl)
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if err := checkNames(append(append([]metricDef(nil), endToEnd...), perLayer...)); err != nil {
		fatalf("%v", err)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	if *bin == "" {
		*bin = filepath.Join(absRoot, ".bench_build")
	}
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	runs := filepath.Join(absRoot, ".bench_build", "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		fatalf("%v", err)
	}
	work, err := os.MkdirTemp(runs, *wl+"-")
	if err != nil {
		fatalf("%v", err)
	}
	cfg := config{
		Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Root: absRoot, Work: work, Gedserve: filepath.Join(*bin, "gedserve"), Self: self,
	}
	out, err := run(cfg)
	os.RemoveAll(work)
	if err != nil {
		fatalf("%s: %v", *wl, err)
	}
	os.Exit(report(cfg, out))
}

// report prints the provenance and diagnostics line, a readable summary
// on standard error, and the result line. It returns the exit code.
func report(cfg config, out *outcome) int {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(out.Problems) == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.Metrics[d.Name]
		if !ok && !cfg.Trace {
			// An end-to-end metric is never optional: a missing one is
			// a harness bug, not a zero.
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", cfg.Workload, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operations\n", cfg.Workload)
		return 1
	}
	prov := provenance(cfg, out)
	line, _ := json.Marshal(map[string]any{"report": map[string]any{
		"provenance": prov, "problems": out.Problems, "info": out.Info,
	}})
	fmt.Println(string(line))

	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d trace=%v: correct=%v attempted=%d failed=%d\n",
		cfg.Workload, cfg.Seed, cfg.Trace, res.Correct, res.Attempted, res.Failed)
	for _, p := range out.Problems {
		fmt.Fprintf(os.Stderr, "  PROBLEM: %s\n", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if top, ok := out.Info["top_self_layer"]; ok {
		fmt.Fprintf(os.Stderr, "  layer with the most self time: %v\n", top)
	}

	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

// provenance records what a result was measured on and with.
func provenance(cfg config, out *outcome) map[string]any {
	return map[string]any{
		"go":          runtime.Version(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"commit":      commit(cfg.Root),
		"source_hash": sourceHash(cfg.Root),
		"workload":    cfg.Workload,
		"seed":        cfg.Seed,
		"seconds":     cfg.Seconds,
		"trace":       cfg.Trace,
		"rate_rps":    out.Rate,
		"connections": out.Conns,
	}
}

// commit is the checked-out git revision, or "unknown" outside a git
// work tree (a benchmark checkout need not be one; sourceHash then
// identifies the code).
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceHash digests every Go source and module file of the tree, in
// path order, skipping build output.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
