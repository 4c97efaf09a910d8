package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gedlib/serve"
	"gedlib/workload"
)

// genSpec is the load generator's input: where to send, what, and when.
// The generator is a child process of the harness, so its CPU is never
// charged to the server.
type genSpec struct {
	Base     string   `json:"base"`
	Seed     int64    `json:"seed"`
	Tenants  []string `json:"tenants"`
	Nodes    []int    `json:"nodes"`
	ReadFrac float64  `json:"read_frac"`
	// Rate is the fixed offered rate in requests per second; request i
	// is due at i/Rate seconds after the start.
	Rate float64 `json:"rate"`
	// Warmup seconds of schedule run before the measured Seconds.
	Warmup  float64 `json:"warmup"`
	Seconds float64 `json:"seconds"`
	// Conns is the number of connections, each with one sender.
	Conns int `json:"conns"`
}

// genReq is one scheduled request.
type genReq struct {
	Due    time.Duration
	Class  string // violations, validate, stats or mutate
	Tenant int
	Method string
	Path   string
	Body   []byte
	Ops    []serve.Op
}

func (r genReq) read() bool { return r.Class != "mutate" }

// schedule expands the spec into its deterministic request stream: the
// workload.ServeMix Zipf mix, one request due every 1/Rate seconds.
// Mutations write a fixed value or add an edge, so the state the
// acknowledged writes leave does not depend on their order.
func schedule(spec genSpec) []genReq {
	n := int(math.Round((spec.Warmup + spec.Seconds) * spec.Rate))
	mix := workload.NewServeMix(spec.Seed, len(spec.Tenants), spec.Nodes[0], spec.ReadFrac, 1.2)
	out := make([]genReq, n)
	for i := range out {
		m := mix.Next()
		name := spec.Tenants[m.Graph]
		nodes := spec.Nodes[m.Graph]
		r := genReq{
			Due:    time.Duration(float64(i) / spec.Rate * float64(time.Second)),
			Tenant: m.Graph,
		}
		switch m.Op {
		case workload.OpListViolations:
			r.Class, r.Method, r.Path = "violations", "GET", "/graphs/"+name+"/violations?limit=5"
		case workload.OpStats:
			r.Class, r.Method, r.Path = "stats", "GET", "/graphs/"+name+"/stats"
		case workload.OpValidateNodes:
			ids := make([]string, len(m.Nodes))
			for j, nd := range m.Nodes {
				ids[j] = fmt.Sprintf("n%d", nd%nodes)
			}
			r.Class, r.Method, r.Path = "validate", "POST", "/graphs/"+name+"/validate"
			r.Body, _ = json.Marshal(map[string]any{"nodes": ids, "limit": 10})
		case workload.OpMutate:
			for j, nd := range m.Nodes {
				node := fmt.Sprintf("n%d", nd%nodes)
				if m.AttrWrite[j] {
					r.Ops = append(r.Ops, serve.Op{Op: "set_attr", ID: node, Attr: "type", Value: "programmer"})
				} else {
					dst := fmt.Sprintf("n%d", (nd+1+j)%nodes)
					r.Ops = append(r.Ops, serve.Op{Op: "add_edge", Src: node, Label: "create", Dst: dst})
				}
			}
			r.Class, r.Method, r.Path = "mutate", "POST", "/graphs/"+name+"/mutate"
			r.Body, _ = json.Marshal(map[string]any{"ops": r.Ops})
		}
		out[i] = r
	}
	return out
}

// genResult is what the generator reports per request, as offsets from
// the schedule's start in nanoseconds. Status is the HTTP status, 0 for
// a transport error, and -1 for a write acknowledged with fewer ops
// applied than sent.
type genResult struct {
	Start  int64   `json:"start_unix_ns"` // wall clock at offset 0
	Sent   []int64 `json:"sent"`
	Done   []int64 `json:"done"`
	Status []int   `json:"status"`
}

// Generator protocol on standard output: the line "warm" when the
// warm-up part of the schedule has been due, "done" when every request
// has completed, then the genResult as one JSON line.
const (
	lineWarm = "warm"
	lineDone = "done"
)

// genChild is the generator process: an open loop at the spec's fixed
// rate over spec.Conns connections. Each sender takes the next request
// in schedule order, waits until it is due, sends it and records when
// it was sent and answered. A request that finds every connection busy
// is sent late, and its latency still counts from when it was due.
func genChild(specFile string) int {
	data, err := os.ReadFile(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		return 1
	}
	var spec genSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		return 1
	}
	reqs := schedule(spec)
	res := genResult{
		Sent:   make([]int64, len(reqs)),
		Done:   make([]int64, len(reqs)),
		Status: make([]int, len(reqs)),
	}
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     spec.Conns,
		MaxIdleConnsPerHost: spec.Conns,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()

	var next atomic.Int64
	start := time.Now().Add(100 * time.Millisecond)
	res.Start = start.UnixNano()
	var wg sync.WaitGroup
	for c := 0; c < spec.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if d := time.Until(start.Add(r.Due)); d > 0 {
					time.Sleep(d)
				}
				res.Sent[i] = int64(time.Since(start))
				res.Status[i] = send(client, spec.Base, i, r)
				res.Done[i] = int64(time.Since(start))
			}
		}()
	}
	out := bufio.NewWriter(os.Stdout)
	time.Sleep(time.Until(start.Add(time.Duration(spec.Warmup * float64(time.Second)))))
	fmt.Fprintln(out, lineWarm)
	out.Flush()
	wg.Wait()
	fmt.Fprintln(out, lineDone)
	out.Flush()
	if err := json.NewEncoder(out).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		return 1
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		return 1
	}
	return 0
}

// send issues one request and returns its status (see genResult).
func send(client *http.Client, base string, i int, r genReq) int {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, base+r.Path, body)
	if err != nil {
		return 0
	}
	req.Header.Set("X-Request-Id", strconv.Itoa(i))
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0
	}
	if resp.StatusCode == http.StatusOK && r.Class == "mutate" {
		var wr struct {
			Applied int `json:"applied"`
		}
		if json.Unmarshal(data, &wr) != nil || wr.Applied != len(r.Ops) {
			return -1
		}
	}
	return resp.StatusCode
}

// loadRun is one generator run as the harness sees it.
type loadRun struct {
	Spec genSpec
	Reqs []genReq
	Res  genResult
}

// runGenerator runs the generator child against spec and waits for it.
// onWarm and onDone are called as the child reports those points, so the
// caller can sample the server's counters around the measured window.
func runGenerator(cfg config, spec genSpec, onWarm, onDone func()) (*loadRun, error) {
	specFile, err := writeJSONFile(cfg.Work, "gen-spec.json", spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.Self, "-role", "gen", "-spec", specFile)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	run := &loadRun{Spec: spec, Reqs: schedule(spec)}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	var parseErr error
	for sc.Scan() {
		switch line := sc.Bytes(); string(line) {
		case lineWarm:
			if onWarm != nil {
				onWarm()
			}
		case lineDone:
			if onDone != nil {
				onDone()
			}
		default:
			parseErr = json.Unmarshal(line, &run.Res)
		}
	}
	if err := sc.Err(); err != nil {
		// Stop reading means the child may block writing; end it.
		_ = cmd.Process.Kill()
		parseErr = err
	}
	waitErr := cmd.Wait()
	if waitErr != nil {
		return nil, fmt.Errorf("generator: %w", waitErr)
	}
	if parseErr != nil || len(run.Res.Status) != len(run.Reqs) {
		return nil, fmt.Errorf("generator: bad result (%v)", parseErr)
	}
	return run, nil
}

// loadStats digests a generator run over its measured window: the
// requests due after the warm-up.
type loadStats struct {
	Attempted int
	Failed    int
	ReadsOK   int
	WritesOK  int
	Read      []float64   // ms from due to answer, successful reads
	Write     []float64   // ms from due to ack, successful writes
	ReadEnd   []time.Time // wall clock when each read was answered
	WriteEnd  []time.Time // and each write acknowledged
	ByClass   map[string]int
	// LateP50/LateP99 are how late the generator sent (ms after due);
	// BacklogMax is the most requests due but not yet sent, and
	// BacklogEnd that count when the last request was sent.
	LateP50, LateP99 float64
	BacklogMax       int
	BacklogEnd       int
}

func (run *loadRun) stats() loadStats {
	st := loadStats{ByClass: map[string]int{}}
	warm := time.Duration(run.Spec.Warmup * float64(time.Second))
	var late []float64
	for i, r := range run.Reqs {
		sent := time.Duration(run.Res.Sent[i])
		// Requests due so far when this one was sent, minus those
		// already taken: the generator's backlog at that moment.
		due := int(math.Floor(sent.Seconds()*run.Spec.Rate)) + 1
		if due > len(run.Reqs) {
			due = len(run.Reqs)
		}
		if b := due - i - 1; b > st.BacklogMax {
			st.BacklogMax = b
		}
		if i == len(run.Reqs)-1 {
			st.BacklogEnd = max(0, due-i-1)
		}
		if r.Due < warm {
			continue
		}
		st.Attempted++
		late = append(late, ms(sent-r.Due))
		if run.Res.Status[i] != http.StatusOK {
			st.Failed++
			continue
		}
		st.ByClass[r.Class]++
		lat := ms(time.Duration(run.Res.Done[i]) - r.Due)
		end := time.Unix(0, run.Res.Start+run.Res.Done[i])
		if r.read() {
			st.ReadsOK++
			st.Read = append(st.Read, lat)
			st.ReadEnd = append(st.ReadEnd, end)
		} else {
			st.WritesOK++
			st.Write = append(st.Write, lat)
			st.WriteEnd = append(st.WriteEnd, end)
		}
	}
	st.LateP50 = percentile(late, 0.5)
	st.LateP99 = percentile(late, 0.99)
	return st
}

// Generator honesty limits. A run whose sends slipped or whose backlog
// grew measured a different load than the one offered, so it is
// reported invalid rather than averaged in.
const (
	maxLateP50Ms   = 2.0   // typical send no later than this after due
	maxLateP99Ms   = 250.0 // and almost all sends within this
	maxBacklogSecs = 0.25  // end-of-run backlog, in seconds of schedule
)

// honesty returns the generator-honesty violations of a run.
func (st loadStats) honesty(rate float64) []string {
	var out []string
	if st.LateP50 > maxLateP50Ms {
		out = append(out, fmt.Sprintf("generator slipped: median send %.2fms after due (limit %.1fms)", st.LateP50, maxLateP50Ms))
	}
	if st.LateP99 > maxLateP99Ms {
		out = append(out, fmt.Sprintf("generator slipped: p99 send %.1fms after due (limit %.0fms)", st.LateP99, maxLateP99Ms))
	}
	if limit := int(rate * maxBacklogSecs); st.BacklogEnd > limit {
		out = append(out, fmt.Sprintf("backlog grew: %d requests unsent at the end of the schedule (limit %d)", st.BacklogEnd, limit))
	}
	return out
}

func writeJSONFile(dir, name string, v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}
