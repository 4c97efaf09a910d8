package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"gedlib"
	"gedlib/serve"
)

// servingWorkload is one gedserve traffic shape.
type servingWorkload struct {
	// Scales are the tenants' knowledge-base scales, hottest first.
	Scales []int
	// ReadFrac is the read share of the workload.ServeMix stream.
	ReadFrac float64
	// Rate is the fixed offered rate (requests per second) over Conns
	// connections.
	Rate float64
	// Durable runs gedserve -data with its default fsync=batch and
	// checkpoint policy.
	Durable bool
}

const (
	conns        = 2   // load-generator connections (the box has 2 CPUs)
	warmupSecs   = 1.0 // schedule run before the measured window
	setupRepeats = 3   // launches per run; setup_s is their median
	coldRepeats  = 11  // kill -9 + relaunch cycles; cold_s is their median
)

// readMix: three tenants (KB8000, /4, /16), reads only, at about a third
// of what two connections sustain.
var readMix = servingWorkload{Scales: []int{8000, 2000, 500}, ReadFrac: 1, Rate: 1000}

// writeDurable: 24 equal tenants, more than the engine's 16-graph cache
// holds, half reads and half writes.
var writeDurable = func() servingWorkload {
	scales := make([]int, 24)
	for i := range scales {
		scales[i] = 500
	}
	return servingWorkload{Scales: scales, ReadFrac: 0.5, Rate: 300, Durable: true}
}()

func runReadMix(cfg config) (*outcome, error)      { return runServing(cfg, readMix) }
func runWriteDurable(cfg config) (*outcome, error) { return runServing(cfg, writeDurable) }

// servingInputs are the generated files a serving run hands gedserve.
type servingInputs struct {
	Tenants []tenant
	Rules   string // rules file path
}

func (in servingInputs) names() []string {
	out := make([]string, len(in.Tenants))
	for i, t := range in.Tenants {
		out[i] = t.Name
	}
	return out
}

func (in servingInputs) nodes() []int {
	out := make([]int, len(in.Tenants))
	for i, t := range in.Tenants {
		out[i] = t.Nodes
	}
	return out
}

// loadArgs preloads every tenant and registers φ1–φ4 on it.
func (in servingInputs) loadArgs() []string {
	var args []string
	for _, t := range in.Tenants {
		args = append(args, "-load", t.Name+"="+t.File, "-rules", t.Name+"="+in.Rules)
	}
	return args
}

func (w servingWorkload) spec(cfg config, base string, in servingInputs) genSpec {
	return genSpec{
		Base: base, Seed: cfg.Seed, Tenants: in.names(), Nodes: in.nodes(),
		ReadFrac: w.ReadFrac, Rate: w.Rate, Warmup: warmupSecs,
		Seconds: float64(cfg.Seconds), Conns: conns,
	}
}

func runServing(cfg config, w servingWorkload) (*outcome, error) {
	dir := filepath.Join(cfg.Work, "inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ts, rules, err := writeTenants(dir, w.Scales)
	if err != nil {
		return nil, err
	}
	in := servingInputs{Tenants: ts, Rules: rules}
	if cfg.Trace {
		return runServingTraced(cfg, w, in)
	}
	return runServingUntraced(cfg, w, in)
}

// runServingUntraced measures the end-to-end metrics against real
// gedserve processes.
func runServingUntraced(cfg config, w servingWorkload, in servingInputs) (*outcome, error) {
	out := newOutcome()
	out.Rate, out.Conns = w.Rate, conns
	names := in.names()

	mon := startStealMonitor()
	defer mon.Stop()

	// Set-up: launch to ready (every tenant loaded and its rules
	// registered), several times; the last launch serves the load.
	var srv *server
	defer func() { srv.kill() }()
	var setups []float64
	var dataDir string
	for k := 0; k < setupRepeats; k++ {
		args := in.loadArgs()
		if w.Durable {
			dataDir = filepath.Join(cfg.Work, fmt.Sprintf("data%d", k))
			args = append([]string{"-data", dataDir}, args...)
		}
		s, d, err := startServer(cfg, names, args...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if k == setupRepeats-1 {
			srv = s
			break
		}
		s.kill()
		if w.Durable {
			os.RemoveAll(dataDir)
		}
	}

	pid := srv.proc.Pid
	var cpu0, cpu1 time.Duration
	var warm, done time.Time
	var cpuErr error
	mon.watch(pid)
	run, err := runGenerator(cfg, w.spec(cfg, srv.base, in),
		func() { warm = time.Now(); cpu0, cpuErr = cpuTime(pid) },
		func() {
			var err error
			cpu1, err = cpuTime(pid)
			done = time.Now()
			if cpuErr == nil {
				cpuErr = err
			}
		})
	mon.watch(0)
	if err != nil {
		return nil, err
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	rss, err := peakRSS(pid)
	if err != nil {
		return nil, err
	}
	st := run.stats()
	out.Problems = append(out.Problems, st.honesty(w.Rate)...)

	// Output checks: every tenant's maintained violation set against a
	// fresh Validate of its base graph plus every acknowledged write.
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	pre, err := fetchAll(client, srv.base, names)
	if err != nil {
		return nil, err
	}
	if err := checkOracle(in, run, pre); err != nil {
		out.problem("%v", err)
	}

	// Cold path: kill -9 and relaunch. A durable server recovers from
	// its directory; an in-memory one reloads its input files. Either
	// way it must come back with the state it had.
	var colds []float64
	var coldSpans [][2]time.Time
	for k := 0; k < coldRepeats; k++ {
		srv.kill()
		args := in.loadArgs()
		if w.Durable {
			args = []string{"-data", dataDir}
		}
		s, d, err := startServer(cfg, names, args...)
		if err != nil {
			return nil, err
		}
		srv = s
		colds = append(colds, d.Seconds())
		now := time.Now()
		coldSpans = append(coldSpans, [2]time.Time{now.Add(-d), now})
		post, err := fetchAll(client, srv.base, names)
		if err != nil {
			return nil, err
		}
		if err := checkRecovered(pre, post); err != nil {
			out.problem("restart %d: %v", k+1, err)
		}
	}

	head, end := st.Read, st.ReadEnd
	if w.ReadFrac < 1 {
		head, end = st.Write, st.WriteEnd
	}
	mon.Stop()
	p50, p90, quiet := mon.quantiles(head, end)
	out.Attempted, out.Failed = st.Attempted, st.Failed
	out.Metrics["setup_s"] = median(setups)
	out.Metrics["ok_frac"] = ratio(float64(st.Attempted-st.Failed), float64(st.Attempted))
	out.Metrics["p50_ms"], out.Metrics["p90_ms"] = p50, p90
	cpuAll := ratio(us(cpu1-cpu0), float64(st.ReadsOK+st.WritesOK))
	cpuQuiet, ok := mon.cpuPerReq(append(append([]time.Time(nil), st.ReadEnd...), st.WriteEnd...), warm, done)
	if !ok {
		cpuQuiet = cpuAll
	}
	out.Metrics["cpu_us_per_req"] = cpuQuiet
	out.Metrics["rss_mb"] = rss
	out.Metrics["cold_s"] = mon.quietMedian(colds, coldSpans)
	if len(head) == 0 {
		out.problem("no request of the measured class succeeded")
	}
	out.Info["quiet_share"], out.Info["steal_share"] = quiet, mon.stealShare()
	out.Info["p50_all_ms"] = percentile(head, 0.5)
	out.Info["read_p50_ms"] = percentile(st.Read, 0.5)
	out.Info["read_p90_ms"] = percentile(st.Read, 0.9)
	out.Info["read_p99_ms"] = percentile(st.Read, 0.99)
	out.Info["write_p50_ms"] = percentile(st.Write, 0.5)
	out.Info["write_p90_ms"] = percentile(st.Write, 0.9)
	out.Info["write_p99_ms"] = percentile(st.Write, 0.99)
	out.Info["reads_ok"], out.Info["writes_ok"] = st.ReadsOK, st.WritesOK
	out.Info["by_class"] = st.ByClass
	out.Info["fail_frac"] = ratio(float64(st.Failed), float64(st.Attempted))
	out.Info["server_cpu_s"] = (cpu1 - cpu0).Seconds()
	out.Info["cpu_us_per_req_all"] = cpuAll
	out.Info["gen_late_p50_ms"], out.Info["gen_late_p99_ms"] = st.LateP50, st.LateP99
	out.Info["gen_backlog_max"], out.Info["gen_backlog_end"] = st.BacklogMax, st.BacklogEnd
	out.Info["setup_samples_s"], out.Info["cold_samples_s"] = setups, colds
	return out, nil
}

func fetchAll(client *http.Client, base string, names []string) (map[string]tenantState, error) {
	out := make(map[string]tenantState, len(names))
	for _, n := range names {
		st, err := fetchState(client, base, n)
		if err != nil {
			return nil, err
		}
		out[n] = st
	}
	return out, nil
}

// ackedOps collects, per tenant, the ops of every acknowledged write.
func ackedOps(run *loadRun) map[int][]serve.Op {
	out := map[int][]serve.Op{}
	for i, r := range run.Reqs {
		if r.Class == "mutate" && run.Res.Status[i] == http.StatusOK {
			out[r.Tenant] = append(out[r.Tenant], r.Ops...)
		}
	}
	return out
}

// checkOracle compares each tenant's served violation set with the
// oracle: its base graph plus every acknowledged write, validated from
// scratch. set_attr writes a fixed value and add_edge only adds, so the
// order the writes were acknowledged in does not matter.
func checkOracle(in servingInputs, run *loadRun, got map[string]tenantState) error {
	src, err := os.ReadFile(in.Rules)
	if err != nil {
		return err
	}
	rules, err := gedlib.ParseRules(string(src))
	if err != nil {
		return err
	}
	acked := ackedOps(run)
	for i, t := range in.Tenants {
		data, err := os.ReadFile(t.File)
		if err != nil {
			return err
		}
		want, err := oracleKeys(data, rules, acked[i])
		if err != nil {
			return err
		}
		if err := diffKeys(t.Name+" against the oracle", want, got[t.Name].Keys); err != nil {
			return err
		}
	}
	return nil
}
