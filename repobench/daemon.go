package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raidrel/internal/campaign"
	"raidrel/internal/core"
	"raidrel/internal/rng"
	"raidrel/internal/service"
	"raidrel/internal/sim"
)

// mixClients is the closed loop's client count, and the daemon runs as
// many campaigns at once, one sim worker each: at most the core count,
// two on the reference machine.
var mixClients = min(2, runtime.NumCPU())

// mixPerSecond is the daemon-mix nominal job rate (see opsFor).
const mixPerSecond = 28

// jobTimeout bounds one job's round trips so a hung daemon fails the run
// instead of stalling it.
const jobTimeout = 60 * time.Second

// daemonMix drives raidreld in process with a closed loop of two
// clients over small cold, topology and repeated jobs, so the per-job
// fixed cost (core.New, campaign set-up, checkpoint, result JSON, HTTP),
// queueing and the result cache matter, and the event engine stays
// measured through the coupled-topology jobs.
var daemonMix = workload{
	name: "daemon-mix",
	run:  runDaemon,
	traced: func(rc *runCtx) error {
		d, err := startDaemon(filepath.Join(rc.tmp, "ckpt"))
		if err != nil {
			return err
		}
		mr, err := runMix(d, genMix(rc.seed, opsFor(rc.seconds/3, mixPerSecond, 30)), rc.tmp)
		if err == nil {
			err = mr.check(rc)
		}
		if err == nil {
			mr.traceJobs(rc)
			mr.setServiceMetrics(rc)
			rc.set("trace.groups_per_s", float64(mr.simulated())/mr.wall.Seconds(), "1/s")
		}
		if stopErr := d.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return err
		}
		// The campaign layer under a daemon job: one plain job's campaign
		// with and without its checkpoint.
		m, err := core.New(baseParams())
		if err != nil {
			return err
		}
		opts := core.AdaptiveOptions{MaxIterations: mixPlainIters, Workers: 1}
		_, _, err = campaignRung(rc, m, rng.New(rc.seed).Uint64(), opts, 11, "ladder-campaign", nil)
		return err
	},
}

func runDaemon(rc *runCtx) error {
	mix := genMix(rc.seed, opsFor(rc.seconds, mixPerSecond, minOps))
	var d *daemon
	var times []float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(filepath.Join(rc.tmp, fmt.Sprintf("ckpt-%d", i))); err != nil {
			return err
		}
		// Warm-up: one small job end to end; at 1,000 iterations no mix job
		// shares its cache key.
		warm := service.JobSpec{Params: baseParams(), Seed: 1, Iterations: 1000}
		if rec := d.do(warm); rec.err != nil {
			d.stop()
			return fmt.Errorf("warm-up job: %w", rec.err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	rc.set("setup_s", median(times), "s")

	mr, err := runMix(d, mix, rc.tmp)
	if err == nil {
		setCostMetrics(rc, mr.costs)
		err = mr.check(rc)
	}
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	var lat, run, iters []float64
	for _, r := range mr.recs {
		lat = append(lat, r.latency.Seconds())
		if r.job.Kind != kindRepeat {
			run = append(run, r.runTime().Seconds())
			iters = append(iters, float64(r.job.Spec.Iterations))
		}
	}
	setLatencyMetrics(rc, lat, run, median(mr.jobRates))
	rc.set("iterations_to_target", median(iters), "count")
	jobs, client := mr.kindShares()
	for k := kindPlain; k <= kindRepeat; k++ {
		rc.notef("%s jobs: %.1f%% of jobs, %.1f%% of client time", k, 100*jobs[k], 100*client[k])
	}
	return nil
}

// daemon is an in-process raidreld: a service.Server behind its Handler
// on a loopback listener, as cmd/raidreld serves it.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func startDaemon(ckptDir string) (*daemon, error) {
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Options{MaxConcurrent: mixClients, Workers: 1, CheckpointDir: ckptDir})
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * mixClients}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	if _, _, err := d.get(context.Background(), "/healthz"); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the HTTP server down, waits for Serve to return, and drains
// the job server.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serveErr := <-d.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if drainErr := d.srv.Drain(ctx); err == nil {
		err = drainErr
	}
	d.client.CloseIdleConnections()
	return err
}

func (d *daemon) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getJSON decodes the JSON body of GET path into v.
func (d *daemon) getJSON(path string, v any) error {
	code, body, err := d.get(context.Background(), path)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, code)
	}
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	return err
}

// jobWire is the part of raidreld's job document the benchmark reads.
type jobWire struct {
	ID          string `json:"id"`
	Cached      bool   `json:"cached"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	job            mixJob
	doc            jobWire // submit response
	status         jobWire // from the final job listing
	start          time.Time
	submit, stream time.Duration
	fetch, latency time.Duration
	frames         int
	endState       string
	body           []byte       // result document, until it is spooled
	bodyAt         int64        // the document's offset in the spool
	bodyLen        int          // result body size
	result         resultDigest // set by check
	err            error
}

func (r *jobRecord) runTime() time.Duration {
	s, err1 := time.Parse(time.RFC3339Nano, r.status.StartedAt)
	f, err2 := time.Parse(time.RFC3339Nano, r.status.FinishedAt)
	if err1 != nil || err2 != nil {
		return 0
	}
	return f.Sub(s)
}

// do runs one job end to end: submit, stream progress to the end event,
// fetch the result.
func (d *daemon) do(spec service.JobSpec) jobRecord {
	rec := jobRecord{start: time.Now()}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	rec.err = d.submit(ctx, spec, &rec)
	t1 := time.Now()
	rec.submit = t1.Sub(rec.start)
	if rec.err == nil {
		rec.err = d.streamToEnd(ctx, &rec)
	}
	t2 := time.Now()
	rec.stream = t2.Sub(t1)
	var body []byte
	if rec.err == nil {
		var code int
		code, body, rec.err = d.get(ctx, "/v1/jobs/"+rec.doc.ID+"/result")
		if rec.err == nil && code != http.StatusOK {
			rec.err = fmt.Errorf("GET result: status %d: %s", code, body)
		}
	}
	t3 := time.Now()
	rec.fetch = t3.Sub(t2)
	rec.latency = t3.Sub(rec.start)
	rec.body = body
	return rec
}

func (d *daemon) submit(ctx context.Context, spec service.JobSpec, rec *jobRecord) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("submit refused: status %d: %s", resp.StatusCode, data)
	}
	return json.Unmarshal(data, &rec.doc)
}

// streamToEnd reads the job's SSE stream until its end event, counting
// progress frames.
func (d *daemon) streamToEnd(ctx context.Context, rec *jobRecord) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+rec.doc.ID+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	ended := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: end":
			ended = true
		case strings.HasPrefix(line, "data: ") && ended:
			var end struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &end); err != nil {
				return fmt.Errorf("stream end frame: %w", err)
			}
			rec.endState = end.State
			// Drain the rest so the connection can be reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		case strings.HasPrefix(line, "data: "):
			rec.frames++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream closed before its end event")
}

// mixWindow is the sampling period of the daemon loop: its cost metrics
// and jobs_per_s are medians over windows of this length.
const mixWindow = 2 * time.Second

// mixRun is one closed-loop pass over a prefix of the job mix.
type mixRun struct {
	recs          []jobRecord
	bodies        *spool // the result documents, read back by check
	wall          time.Duration
	costs         []costSample // one per window
	jobRates      []float64    // jobs completed per second, one per window
	before, after service.Metrics
}

// mixTick is a reading taken at a window boundary: process usage and the
// jobs and simulated groups completed so far.
type mixTick struct {
	u            usage
	jobs, groups int64
}

// spool keeps the loop's result documents in a file instead of memory, so
// that holding them until check adds nothing to the process's peak RSS.
type spool struct {
	mu  sync.Mutex
	f   *os.File
	off int64
	err error // the first write error
}

// put appends b and returns its offset.
func (s *spool) put(b []byte) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := s.off
	if s.err == nil {
		_, s.err = s.f.WriteAt(b, at)
	}
	s.off += int64(len(b))
	return at
}

func (s *spool) get(at int64, n int) ([]byte, error) {
	b := make([]byte, n)
	_, err := s.f.ReadAt(b, at)
	return b, err
}

// runMix drives the closed loop over the whole mix: mixClients clients,
// each taking the next job only after its previous job's result arrived.
// The result documents are spooled to a file in dir.
func runMix(d *daemon, mix []mixJob, dir string) (_ *mixRun, err error) {
	f, err := os.CreateTemp(dir, "results-*.spool")
	if err != nil {
		return nil, err
	}
	mr := &mixRun{bodies: &spool{f: f}}
	defer func() {
		if err == nil {
			err = mr.bodies.err
		}
		if err != nil {
			f.Close()
		}
	}()
	if err := d.getJSON("/metrics", &mr.before); err != nil {
		return nil, err
	}
	recs := make([]jobRecord, len(mix))
	var next, done, groups atomic.Int64
	var wg sync.WaitGroup
	ticks := []mixTick{{u: readUsage()}}
	start := ticks[0].u.wall
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(mixWindow)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ticks = append(ticks, mixTick{readUsage(), done.Load(), groups.Load()})
			}
		}
	}()
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if time.Since(start) >= hardStop {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(mix) {
					return
				}
				recs[i] = d.do(mix[i].Spec)
				recs[i].job = mix[i]
				recs[i].bodyAt, recs[i].bodyLen = mr.bodies.put(recs[i].body), len(recs[i].body)
				recs[i].body = nil
				if mix[i].Kind != kindRepeat {
					groups.Add(int64(mix[i].Spec.Iterations))
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	end := mixTick{readUsage(), done.Load(), groups.Load()}
	close(stop)
	<-sampled
	mr.wall = end.u.wall.Sub(start)
	if last := ticks[len(ticks)-1]; end.u.wall.Sub(last.u.wall) >= mixWindow/2 {
		ticks = append(ticks, end) // keep a final partial window of at least half a period
	}
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		if c, ok := costBetween(a.u, b.u, int(b.groups-a.groups)); ok {
			mr.costs = append(mr.costs, c)
		}
		mr.jobRates = append(mr.jobRates, float64(b.jobs-a.jobs)/b.u.wall.Sub(a.u.wall).Seconds())
	}
	if len(mr.costs) == 0 {
		return nil, fmt.Errorf("the loop simulated nothing in %v", mr.wall)
	}
	mr.recs = recs[:min(int(next.Load()), len(mix))]
	if err := d.getJSON("/metrics", &mr.after); err != nil {
		return nil, err
	}
	// The listing carries each job's queue and run timestamps; read it
	// after the loop so it costs the measured jobs nothing.
	var list []jobWire
	if err := d.getJSON("/v1/jobs", &list); err != nil {
		return nil, err
	}
	byID := map[string]jobWire{}
	for _, j := range list {
		byID[j.ID] = j
	}
	for i := range mr.recs {
		mr.recs[i].status = byID[mr.recs[i].doc.ID]
	}
	return mr, nil
}

// simulated is the number of group chronologies the daemon simulated
// during the loop.
func (mr *mixRun) simulated() int {
	return int(mr.after.IterationsSimulated - mr.before.IterationsSimulated)
}

// resultWire is the part of raidreld's result document the checks read.
type resultWire struct {
	Iterations    int     `json:"iterations"`
	GroupsWithDDF int     `json:"groups_with_ddf"`
	TotalDDFs     int     `json:"ddfs"`
	P             float64 `json:"p"`
	CILo          float64 `json:"ci_lo"`
	CIHi          float64 `json:"ci_hi"`
	Reason        string  `json:"reason"`
	Events        []struct {
		Group int     `json:"g"`
		Time  float64 `json:"t"`
		Cause int     `json:"c"`
	} `json:"events"`
}

// resultDigest is what the checks need from one result body: its
// consistency verdict, its DDF tallies, and a hash of the document
// without its job id. It is taken after the loop, so that parsing and
// hashing the bodies adds nothing to the measured CPU, allocations and
// job rate.
type resultDigest struct {
	err           error
	groups        int
	groupsWithDDF int
	// countSum and countSq are the sum and sum of squares of the
	// per-group DDF counts at the mission.
	countSum, countSq float64
	hash              [sha256.Size]byte
}

// digestResult checks one result document's internal consistency — the
// requested size and stop reason, p inside its interval, events inside
// the run and the mission and agreeing with the summary counts — and
// digests it.
func digestResult(body []byte, iterations int, mission float64) resultDigest {
	var res resultWire
	if err := json.Unmarshal(body, &res); err != nil {
		return resultDigest{err: err}
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		return resultDigest{err: err}
	}
	delete(doc, "id")
	norm, err := json.Marshal(doc) // map keys marshal sorted
	if err != nil {
		return resultDigest{err: err}
	}
	dg := resultDigest{groups: res.Iterations, groupsWithDDF: res.GroupsWithDDF, hash: sha256.Sum256(norm)}
	if res.Iterations != iterations {
		dg.err = fmt.Errorf("result has %d iterations, want %d", res.Iterations, iterations)
		return dg
	}
	if res.Reason != campaign.StopMaxIterations.String() {
		dg.err = fmt.Errorf("result stopped with %q", res.Reason)
		return dg
	}
	if !(res.CILo <= res.P && res.P <= res.CIHi) {
		dg.err = fmt.Errorf("p %g outside its interval [%g, %g]", res.P, res.CILo, res.CIHi)
		return dg
	}
	counts := map[int]float64{}
	ddfs := 0
	for _, e := range res.Events {
		if e.Group < 0 || e.Group >= iterations || e.Time < 0 || e.Time > mission {
			dg.err = fmt.Errorf("event out of range: group %d at %g h", e.Group, e.Time)
			return dg
		}
		if sim.Cause(e.Cause) != sim.CauseUnavail {
			counts[e.Group]++
			ddfs++
		}
	}
	if len(counts) != res.GroupsWithDDF || ddfs != res.TotalDDFs {
		dg.err = fmt.Errorf("events give %d groups with %d DDFs, the summary %d with %d",
			len(counts), ddfs, res.GroupsWithDDF, res.TotalDDFs)
		return dg
	}
	for _, c := range counts {
		dg.countSum += c
		dg.countSq += c * c
	}
	return dg
}

// check judges every job: it must be accepted, stream to a done end
// event, and return a consistent result of the requested size; a repeat's
// result must equal its original's apart from the job id. Cold plain and
// topology jobs are pooled per configuration and checked against the
// reference. It reads the spooled result documents, and closes the spool.
func (mr *mixRun) check(rc *runCtx) error {
	defer mr.bodies.f.Close()
	refs := map[jobKind]refConfig{}
	for kind, name := range map[jobKind]string{kindPlain: "base", kindTopology: "topology"} {
		ref, err := loadReference(name)
		if err != nil {
			return err
		}
		refs[kind] = ref
	}
	pools := map[jobKind]*ddfStats{kindPlain: {}, kindTopology: {}}
	pooled := map[jobKind]int{}
	for i := range mr.recs {
		r := &mr.recs[i]
		err := r.err
		if err == nil {
			body, readErr := mr.bodies.get(r.bodyAt, r.bodyLen)
			if readErr != nil {
				return fmt.Errorf("reading spooled result: %w", readErr)
			}
			r.result = digestResult(body, r.job.Spec.Iterations, r.job.Spec.Params.MissionHours)
		}
		if err == nil && r.endState != string(service.JobDone) {
			err = fmt.Errorf("stream ended in state %q", r.endState)
		}
		if err == nil {
			err = r.result.err
		}
		if err == nil && r.job.Kind == kindRepeat && r.result.hash != mr.recs[r.job.Orig].result.hash {
			err = fmt.Errorf("repeat of job %d returned a different result", r.job.Orig)
		}
		rc.checks.op(err == nil)
		if err != nil {
			rc.notef("daemon-mix job %d (%s): %v", i, r.job.Kind, err)
			continue
		}
		if p := pools[r.job.Kind]; p != nil {
			dg := r.result
			p.p.addN(1, float64(dg.groupsWithDDF))
			p.p.addN(0, float64(dg.groups-dg.groupsWithDDF))
			p.count.addMoments(float64(dg.groups), dg.countSum, dg.countSq)
			pooled[r.job.Kind]++
		}
	}
	for _, kind := range []jobKind{kindPlain, kindTopology} {
		if pooled[kind] > 0 {
			pools[kind].check(&rc.checks, "daemon-mix "+kind.String()+" jobs", refs[kind], pooled[kind])
		}
	}
	return nil
}

// traceJobs records each job's spans: the client's three round trips,
// and, under the stream, the queue wait and campaign run the daemon
// reports for cold jobs.
func (mr *mixRun) traceJobs(rc *runCtx) {
	for i, r := range mr.recs {
		run := fmt.Sprintf("job%d", i)
		t0 := r.start
		t1 := t0.Add(r.submit)
		t2 := t1.Add(r.stream)
		root := rc.tr.record("bench.job", run, 0, t0, t0.Add(r.latency))
		rc.tr.record("service.submit", run, root, t0, t1)
		stream := rc.tr.record("service.stream", run, root, t1, t2)
		rc.tr.record("service.result", run, root, t2, t2.Add(r.fetch))
		if r.job.Kind == kindRepeat {
			continue
		}
		sub, err1 := time.Parse(time.RFC3339Nano, r.status.SubmittedAt)
		st, err2 := time.Parse(time.RFC3339Nano, r.status.StartedAt)
		fin, err3 := time.Parse(time.RFC3339Nano, r.status.FinishedAt)
		if err1 == nil && err2 == nil && err3 == nil {
			rc.tr.record("service.queue", run, stream, sub, st)
			rc.tr.record("campaign.Run", run, stream, st, fin)
		}
	}
}

// setServiceMetrics reports the service layer's per-layer metrics.
func (mr *mixRun) setServiceMetrics(rc *runCtx) {
	var submit, queue, run, fetch, size, hit, frames []float64
	distinct := map[uint64]bool{}
	requested := 0
	for _, r := range mr.recs {
		submit = append(submit, ms(r.submit))
		fetch = append(fetch, ms(r.fetch))
		size = append(size, float64(r.bodyLen))
		frames = append(frames, float64(r.frames))
		if r.job.Kind == kindRepeat {
			if r.doc.Cached {
				hit = append(hit, ms(r.latency))
			}
			continue
		}
		if sub, err := time.Parse(time.RFC3339Nano, r.status.SubmittedAt); err == nil {
			if st, err := time.Parse(time.RFC3339Nano, r.status.StartedAt); err == nil {
				queue = append(queue, ms(st.Sub(sub)))
			}
		}
		run = append(run, ms(r.runTime()))
		if !distinct[r.job.Spec.Seed] {
			distinct[r.job.Spec.Seed] = true
			requested += r.job.Spec.Iterations
		}
	}
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		v, _ := percentile(xs, 0.5)
		return v
	}
	rc.set("service.submit_ms_p50", p50(submit), "ms")
	rc.set("service.queue_wait_ms_p50", p50(queue), "ms")
	rc.set("service.run_ms_p50", p50(run), "ms")
	rc.set("service.result_fetch_ms_p50", p50(fetch), "ms")
	rc.set("service.result_bytes_mean", mean(size), "B")
	rc.set("service.cache_hit_ms_p50", p50(hit), "ms")
	rc.set("service.cache_hits", float64(mr.after.CacheHits-mr.before.CacheHits), "count")
	rc.set("service.coalesced", float64(mr.after.Coalesced-mr.before.Coalesced), "count")
	rc.set("service.iterations_simulated", float64(mr.simulated()), "count")
	useful := 0.0
	if mr.simulated() > 0 {
		useful = float64(requested) / float64(mr.simulated())
	}
	rc.set("service.useful_frac", useful, "1")
	rc.set("service.jobs_tracked_end", float64(mr.after.Jobs), "count")
	rc.set("service.sse_frames_per_job", mean(frames), "count")
	rc.set("service.jobs", float64(len(mr.recs)), "count")
	jobs, client := mr.kindShares()
	for k := kindPlain; k <= kindRepeat; k++ {
		rc.set("service."+k.String()+"_job_frac", jobs[k], "1")
		rc.set("service."+k.String()+"_time_frac", client[k], "1")
	}
}

// kindShares returns each job kind's share of the loop's jobs and of its
// summed client latency. The mix's shares are assumptions of the
// benchmark, and repeats are near-instant cache hits, so a gain that
// rests on one kind is read against these shares.
func (mr *mixRun) kindShares() (jobs, client [3]float64) {
	var total float64
	for _, r := range mr.recs {
		jobs[r.job.Kind]++
		client[r.job.Kind] += r.latency.Seconds()
		total += r.latency.Seconds()
	}
	for k := range jobs {
		jobs[k] /= float64(len(mr.recs))
		client[k] /= total
	}
	return jobs, client
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
