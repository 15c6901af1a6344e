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
	"os"
	"path/filepath"
	"sync"

	"asyncsgd/internal/cluster"
	"asyncsgd/internal/serve"
)

// system is one booted instance of the service under test, listening on
// a loopback port, plus the HTTP client that drives it.
type system struct {
	srv     *serve.Server
	coord   *cluster.Coordinator // nil unless the workload runs the cluster
	hs      *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	logPath string

	stopWorker context.CancelFunc
	workerDone chan struct{}
	workerTr   *workerTransport
}

// boot starts the service the way cmd/asgdserve does and returns once
// /healthz answers, the job log is open and the worker is registered.
// A non-nil tracer swaps in the tracing dispatcher and journal.
func boot(w workload, dir string, tr *tracer) (*system, error) {
	s := &system{
		client: &http.Client{Transport: &http.Transport{}},
		served: make(chan struct{}),
	}
	cfg := serve.Config{}
	if w.cluster {
		s.logPath = filepath.Join(dir, "job.log")
		coord, err := cluster.NewCoordinatorWithLog(cluster.Config{BatchSize: 1}, s.logPath)
		if err != nil {
			return nil, err
		}
		s.coord = coord
		if tr != nil {
			traced := &tracedCoordinator{Coordinator: coord, tr: tr}
			cfg.Dispatcher, cfg.Journal = traced, traced
		} else {
			cfg.Dispatcher, cfg.Journal = coord, coord
		}
	} else if tr != nil {
		cfg.Dispatcher = &tracingDispatcher{tr: tr}
		cfg.Journal = acceptJournal{tr: tr}
	}
	s.srv = serve.New(cfg)
	handler := s.srv.Handler()
	if s.coord != nil {
		if _, err := s.coord.Recover(s.srv); err != nil {
			s.close()
			return nil, fmt.Errorf("replaying job log: %w", err)
		}
		handler = s.coord.Mount(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: handler}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln)
	}()
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		s.close()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	if s.coord != nil {
		s.workerTr = &workerTransport{inner: &http.Transport{}, registered: make(chan struct{})}
		wk, err := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: s.base, Name: "bench-0", HTTPClient: &http.Client{Transport: s.workerTr},
		})
		if err != nil {
			s.close()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.stopWorker, s.workerDone = cancel, make(chan struct{})
		go func() {
			defer close(s.workerDone)
			_ = wk.Run(ctx)
		}()
		<-s.workerTr.registered
	}
	return s, nil
}

// close stops the worker, the server, the listener and the coordinator,
// and waits for each of their goroutines to end.
func (s *system) close() {
	if s.stopWorker != nil {
		s.stopWorker()
		<-s.workerDone
		s.workerTr.inner.CloseIdleConnections()
	}
	s.srv.Close()
	if s.hs != nil {
		_ = s.hs.Close()
		<-s.served
	}
	if s.coord != nil {
		s.coord.Close()
	}
	s.client.CloseIdleConnections()
}

// workerTransport is the HTTP worker's transport. It signals the
// worker's first successful registration.
type workerTransport struct {
	inner      *http.Transport
	registered chan struct{}
	once       sync.Once
}

func (t *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(req)
	if err == nil && req.URL.Path == "/cluster/v1/register" && resp.StatusCode == http.StatusOK {
		t.once.Do(func() { close(t.registered) })
	}
	return resp, err
}

// submit posts one request and returns the server's job status.
func (s *system) submit(req serve.SweepRequest) (serve.JobStatus, error) {
	var st serve.JobStatus
	body, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	resp, err := s.client.Post(s.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// await follows a job's NDJSON event stream to its terminal event and
// returns the result document and the number of events seen.
func (s *system) await(id string) ([]byte, int, error) {
	resp, err := s.client.Get(s.base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	events := 0
	for sc.Scan() {
		events++
		var ev struct {
			Type     string          `json:"type"`
			Document json.RawMessage `json:"document"`
			Err      string          `json:"err"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, events, fmt.Errorf("events %s: %w", id, err)
		}
		switch ev.Type {
		case "aggregate":
			return ev.Document, events, nil
		case "error":
			return nil, events, fmt.Errorf("job %s: %s", id, ev.Err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, events, fmt.Errorf("events %s: %w", id, err)
	}
	return nil, events, fmt.Errorf("events %s: stream ended without a terminal event", id)
}

// warmUp runs one job to its checked document, so that lazy
// initialization and first-request costs land in set-up rather than in
// the measured window.
func (s *system) warmUp(req serve.SweepRequest) error {
	st, err := s.submit(req)
	if err != nil {
		return err
	}
	doc, _, err := s.await(st.ID)
	if err != nil {
		return err
	}
	rep, err := decodeDoc(doc)
	if err != nil {
		return err
	}
	return checkCells(rep, req)
}

// clusterCounts reads the leases granted so far and the job log's size.
func (s *system) clusterCounts() (float64, int64, error) {
	leases, err := s.scrape("asgdserve_cluster_leases_granted_total")
	if err != nil {
		return 0, 0, err
	}
	fi, err := os.Stat(s.logPath)
	if err != nil {
		return 0, 0, err
	}
	return leases, fi.Size(), nil
}

// scrape reads one counter from the server's /metrics document.
func (s *system) scrape(name string) (float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v float64
		if _, err := fmt.Sscanf(sc.Text(), name+" %g", &v); err == nil {
			return v, nil
		}
	}
	return 0, fmt.Errorf("metric %s not exported", name)
}
