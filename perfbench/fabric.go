package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fdpsim/internal/service"
	"fdpsim/internal/store"
)

// A service round drives an in-process fdpserved — service.New plus its
// HTTP Handler on a loopback listener, two workers — with a closed loop
// of clients. Each client submits a job, follows it to done (the POST
// answers a cache hit at once; otherwise the client follows the job's
// SSE stream to its "done" event), and only then takes the next job.

// roundWorkers and roundClients size the service and its closed loop;
// neither exceeds the two CPUs the benchmark is sized for.
const (
	roundWorkers = 2
	roundClients = 2
)

// job is one submission: a name that keys its digest and the request.
type job struct {
	name string
	req  service.JobRequest
}

// jobOutcome is what a client observed for one job.
type jobOutcome struct {
	status   service.JobStatus
	latency  time.Duration // submit -> done, client side
	submitRT time.Duration // the POST round trip
	err      error
}

// roundResult is one service round.
type roundResult struct {
	jobs       []jobOutcome // indexed like the round's job list
	wall       time.Duration
	executions uint64 // Server.Executions()
	hits       int
}

// digests returns each job's result digest ("" for a job that failed).
func (rr roundResult) digests() []string {
	out := make([]string, len(rr.jobs))
	for i, o := range rr.jobs {
		if o.status.Result != nil {
			out[i] = digestResult(o.status.Result)
		}
	}
	return out
}

// serviceRound serves jobs from a fresh Server over st, submitting them
// in list order, and returns once every job is done and the server and its
// listener have shut down. The order is fixed: with two workers, the
// order sets the makespan, and it is not what the benchmark measures.
func serviceRound(ctx context.Context, st *store.Store, jobs []job) (roundResult, error) {
	srv := service.New(service.Config{Workers: roundWorkers, Store: st, SSEKeepalive: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(ctx) //nolint:errcheck // the listen error is the one to report
		return roundResult{}, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown below
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: roundClients, DisableCompression: true}
	client := &http.Client{Transport: tr}
	base := "http://" + ln.Addr().String()

	res := roundResult{jobs: make([]jobOutcome, len(jobs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < roundClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				res.jobs[i] = submitAndFollow(ctx, client, base, jobs[i].req)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)

	tr.CloseIdleConnections()
	err = errors.Join(hs.Shutdown(ctx), srv.Shutdown(ctx))
	<-served
	res.executions = srv.Executions()
	for _, o := range res.jobs {
		if o.status.CacheHit {
			res.hits++
		}
	}
	return res, err
}

// submitAndFollow posts one job and waits for its terminal status.
func submitAndFollow(ctx context.Context, client *http.Client, base string, req service.JobRequest) jobOutcome {
	body, err := json.Marshal(req)
	if err != nil {
		return jobOutcome{err: err}
	}
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return jobOutcome{err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return jobOutcome{err: fmt.Errorf("submit: %w", err)}
	}
	var st service.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	out := jobOutcome{submitRT: time.Since(start)}
	switch {
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		out.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return out
	case derr != nil:
		out.err = fmt.Errorf("submit: %w", derr)
		return out
	}
	if !st.State.Terminal() {
		st, err = follow(ctx, client, base, st.ID)
		if err != nil {
			out.err = err
			return out
		}
	}
	out.latency = time.Since(start)
	out.status = st
	if st.State != service.StateDone || st.Result == nil {
		out.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return out
}

// follow reads a job's SSE stream until its "done" event and returns the
// final status that event carries.
func follow(ctx context.Context, client *http.Client, base, id string) (service.JobStatus, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return service.JobStatus{}, err
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return service.JobStatus{}, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.JobStatus{}, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	r := bufio.NewReaderSize(resp.Body, 64<<10)
	event := ""
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return service.JobStatus{}, fmt.Errorf("events: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var st service.JobStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return service.JobStatus{}, fmt.Errorf("events: done: %w", err)
			}
			return st, nil
		}
	}
}
