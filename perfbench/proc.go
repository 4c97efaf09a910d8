package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux architecture Go supports.
const clockTicks = 100

// childAttr makes the kernel kill a child if the harness dies first, so
// no server or generator outlives a crashed run.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// server is one running gedserve child process.
type server struct {
	proc    *os.Process
	base    string
	logPath string
	exited  chan error // receives the process's exit once
	gone    bool
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches gedserve with args plus a fresh -addr and waits
// until /healthz lists every name in want with health "ok". It returns
// the server and the time from launch to ready.
func startServer(cfg config, want []string, args ...string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	log, err := os.CreateTemp(cfg.Work, "gedserve-*.log")
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(cfg.Gedserve, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = childAttr()
	start := time.Now()
	err = cmd.Start()
	log.Close() // the child holds its own descriptor
	if err != nil {
		return nil, 0, err
	}
	s := &server{proc: cmd.Process, base: "http://" + addr, logPath: log.Name(), exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := start.Add(120 * time.Second)
	for {
		if healthy(client, s.base, want) {
			return s, time.Since(start), nil
		}
		select {
		case err := <-s.exited:
			s.gone = true
			return nil, 0, fmt.Errorf("gedserve exited before ready (%v): %s", err, s.logTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, errors.New("gedserve not ready within 120s: " + s.logTail())
		}
	}
}

// healthy reports whether /healthz answers with every wanted graph
// present and healthy.
func healthy(client *http.Client, base string, want []string) bool {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h struct {
		Graphs map[string]struct {
			Health string `json:"health"`
		} `json:"graphs"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		return false
	}
	for _, name := range want {
		if g, ok := h.Graphs[name]; !ok || g.Health != "ok" {
			return false
		}
	}
	return true
}

// kill sends SIGKILL (kill -9) and waits until the process has ended.
func (s *server) kill() {
	if s == nil || s.gone {
		return
	}
	_ = s.proc.Kill() // fails only if the process already exited
	<-s.exited
	s.gone = true
}

func (s *server) logTail() string { return tail(s.logPath) }

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// cpuTime is a process's user+system CPU time so far, from
// /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name, which may hold
	// spaces: state is field 3, utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS is a process's peak resident set size (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// getJSON fetches url into v, failing on any status but 200.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Host steal. On a virtual machine the hypervisor can run other guests
// while this one's CPUs want to run; the kernel counts that time as
// "steal" in /proc/stat. Every wall-clock latency includes it, and on a
// shared host it comes and goes in stretches of minutes: on a 2-CPU
// virtual machine, read-mix runs of the same code at 3% and at 24% steal
// measured a read p90 of 1.3 and of 4.5 ms, and write-durable runs at 1%
// and 11% steal used 2.1 and 2.4 s of server CPU for the same requests.
// stealMonitor samples steal in 100 ms slices so that latency quantiles
// and CPU per request can be taken over the slices the host left alone.
//
// A slice is quiet when it lost at most quietTicks. When too few samples
// fall in quiet slices, a selection widens to the least-stolen slices
// that hold enough of them (see stealLimit), so a run on a busy host
// still stands on its calmest stretches rather than on all of them.

const (
	stealSlice = 100 * time.Millisecond
	// quietTicks is the most steal a quiet slice may hold: one tick
	// (10 ms) of the 200 ms two CPUs offer in a slice.
	quietTicks = 1
	// minQuiet is the fewest samples the latency quantiles stand on: a
	// p90 with ten samples beyond it.
	minQuiet = 100
	// minQuietRepeats is the fewest repeats a quiet median stands on.
	minQuietRepeats = 3
	// minQuietSlices is the fewest slices CPU per request stands on:
	// 2 s, so that the 10 ms granularity of /proc CPU times averages out.
	minQuietSlices = 20
)

// stealMonitor samples the host's steal time, and the CPU time of a
// watched process, until stopped.
type stealMonitor struct {
	ends  []time.Time     // end of each slice
	steal []int64         // ticks stolen in the slice ending at ends[i]
	cpu   []time.Duration // watched process's CPU time at ends[i]; -1 if none
	pid   atomic.Int64    // process to watch; 0 for none
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
}

func startStealMonitor() *stealMonitor {
	m := &stealMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		prev, err := stealTicks()
		tick := time.NewTicker(stealSlice)
		defer tick.Stop()
		for err == nil {
			select {
			case <-m.stop:
				return
			case now := <-tick.C:
				var cur int64
				if cur, err = stealTicks(); err == nil {
					c := time.Duration(-1)
					if pid := m.pid.Load(); pid != 0 {
						if v, err := cpuTime(int(pid)); err == nil {
							c = v
						}
					}
					m.ends = append(m.ends, now)
					m.steal = append(m.steal, cur-prev)
					m.cpu = append(m.cpu, c)
					prev = cur
				}
			}
		}
	}()
	return m
}

// watch makes the sampler also read pid's CPU time at each slice end;
// 0 stops it.
func (m *stealMonitor) watch(pid int) { m.pid.Store(int64(pid)) }

// Stop ends sampling and waits for the sampler; the slices are readable
// afterwards. Stopping again does nothing.
func (m *stealMonitor) Stop() {
	m.once.Do(func() { close(m.stop) })
	<-m.done
}

// slice returns the index of the slice holding t, or -1 when t lies
// outside the sampled span.
func (m *stealMonitor) slice(t time.Time) int {
	i := sort.Search(len(m.ends), func(i int) bool { return !m.ends[i].Before(t) })
	if i == 0 || i == len(m.ends) {
		return -1
	}
	return i
}

// spanSteal is the most steal any slice overlapping [a, b] lost, or -1
// when the span is not wholly inside the sampled span.
func (m *stealMonitor) spanSteal(a, b time.Time) int64 {
	i := m.slice(a)
	if i < 0 {
		return -1
	}
	var worst int64
	for ; i < len(m.ends); i++ {
		worst = max(worst, m.steal[i])
		if !m.ends[i].Before(b) {
			return worst
		}
	}
	return -1
}

// stealLimit is the most steal a selection admits, given the steal each
// candidate lost (-1 for one outside the sampled span): quietTicks, or
// the least limit that admits need candidates when fewer are quiet. It
// reports false when fewer than need candidates were sampled at all.
func stealLimit(steals []int64, need int) (int64, bool) {
	var in []int64
	for _, s := range steals {
		if s >= 0 {
			in = append(in, s)
		}
	}
	if len(in) < need || need < 1 {
		return 0, false
	}
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	return max(quietTicks, in[need-1]), true
}

// pick returns the xs whose steal (steals[i]) the selection for need
// admits, or all of xs when too few were sampled.
func pick(xs []float64, steals []int64, need int) []float64 {
	limit, ok := stealLimit(steals, need)
	if !ok {
		return xs
	}
	var q []float64
	for i, x := range xs {
		if s := steals[i]; s >= 0 && s <= limit {
			q = append(q, x)
		}
	}
	return q
}

// quantiles returns the p50 and p90 of the samples xs (ms) whose end
// times at fall in the selected slices (see stealLimit, need minQuiet),
// and the share of samples in quiet slices.
func (m *stealMonitor) quantiles(xs []float64, at []time.Time) (p50, p90, share float64) {
	steals := make([]int64, len(xs))
	quiet := 0
	for i := range xs {
		steals[i] = -1
		if k := m.slice(at[i]); k >= 0 {
			steals[i] = m.steal[k]
			if steals[i] <= quietTicks {
				quiet++
			}
		}
	}
	q := pick(xs, steals, minQuiet)
	return percentile(q, 0.5), percentile(q, 0.9), ratio(float64(quiet), float64(len(xs)))
}

// quietMedian is the median of the repeated timings xs (each run over
// spans[i]) that ran in selected slices only (see stealLimit, need
// minQuietRepeats).
func (m *stealMonitor) quietMedian(xs []float64, spans [][2]time.Time) float64 {
	steals := make([]int64, len(xs))
	for i := range xs {
		steals[i] = m.spanSteal(spans[i][0], spans[i][1])
	}
	return median(pick(xs, steals, minQuietRepeats))
}

// cpuPerReq is the watched process's CPU time in µs per request, over
// the slices that lie inside [from, to], were watched at both ends, and
// the selection admits (see stealLimit, need minQuietSlices): their CPU
// time over the requests answered in them (answered at the times done).
// It reports false when fewer than minQuietSlices slices qualify.
func (m *stealMonitor) cpuPerReq(done []time.Time, from, to time.Time) (float64, bool) {
	reqs := make([]int, len(m.ends))
	for _, t := range done {
		if k := m.slice(t); k >= 0 {
			reqs[k]++
		}
	}
	var idx []int
	var steals []int64
	for k := 1; k < len(m.ends); k++ {
		if m.ends[k-1].Before(from) || m.ends[k].After(to) || m.cpu[k-1] < 0 || m.cpu[k] < 0 {
			continue
		}
		idx = append(idx, k)
		steals = append(steals, m.steal[k])
	}
	limit, ok := stealLimit(steals, minQuietSlices)
	if !ok {
		return 0, false
	}
	var cpu time.Duration
	n := 0
	for i, k := range idx {
		if steals[i] <= limit {
			cpu += m.cpu[k] - m.cpu[k-1]
			n += reqs[k]
		}
	}
	return ratio(us(cpu), float64(n)), n > 0
}

// stealShare is the share of the sampled slices' CPU time lost to steal.
func (m *stealMonitor) stealShare() float64 {
	var total int64
	for _, s := range m.steal {
		total += s
	}
	capacity := float64(len(m.steal)) * stealSlice.Seconds() * clockTicks * float64(runtime.NumCPU())
	return ratio(float64(total), capacity)
}

// stealTicks is the machine's cumulative steal time in clock ticks, the
// eighth value of the cpu line of /proc/stat.
func stealTicks() (int64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("malformed /proc/stat")
	}
	return strconv.ParseInt(f[8], 10, 64)
}
