package main

// serve.go is the serving phase: a ModelServer on loopback answering a
// closed-loop replay of the seeded corpus over P keep-alive connections,
// optionally while supervised training runs beside it and promotes every
// checkpoint. The loop is closed because the callers modelled are upstream
// services that wait for their reply; an in-process open-loop generator on
// shared cores would measure Go timer lateness (see README.md).
//
// The load loop and the horizon-extension training loop follow
// cmd/experiments/servload.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"buckwild"
	"buckwild/internal/serve"
)

const (
	warmupPerConn = 32
	// roundEpochs is how far one training round extends the epoch horizon
	// (the `buckwild serve -epochs` default).
	roundEpochs = 4
	// verifyEvery is the stride of responses whose margins are decoded and
	// checked; every response is checked for status and promotion order.
	verifyEvery = 8
)

// server is a started ModelServer with its clients and the record of what
// was promoted into it.
type server struct {
	srv     *buckwild.ModelServer
	tracer  *buckwild.Tracer
	url     string
	clients []*http.Client
	promo   *promoRecorder
	ckptDir string
	horizon int
	// ok counts every 200 any client of this server has seen, for the
	// zero-drop accounting at drain.
	ok atomic.Int64
}

// promoRecorder is the wrapping Snapshotter: it times the promotion path
// and remembers which model each promotion sequence number installed, so
// that served margins can be checked against the model that answered.
type promoRecorder struct {
	inner buckwild.Snapshotter
	srv   *buckwild.ModelServer

	mu     sync.Mutex
	models map[uint64]serve.Predictor
	ms     []float64
}

func (p *promoRecorder) OnSnapshot(s buckwild.ModelSnapshot) {
	t0 := time.Now()
	p.inner.OnSnapshot(s)
	d := time.Since(t0)
	// Only this recorder promotes, so the current model is the one the
	// call above installed (or the previous one, if it was refused).
	pred, _, seq := p.srv.Current()
	p.mu.Lock()
	p.models[seq] = pred
	p.ms = append(p.ms, float64(d.Nanoseconds())/1e6)
	p.mu.Unlock()
}

func (p *promoRecorder) model(seq uint64) serve.Predictor {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.models[seq]
}

// startServer starts the daemon (with a Tracer on the traced pass),
// promotes the first model through one supervised training round, and warms
// every connection.
func startServer(c *runCtx, in *inputs) (*server, error) {
	s := &server{}
	if c.traced() {
		s.tracer = buckwild.NewTracer(1 << 16)
	}
	srv, err := buckwild.NewModelServer(buckwild.ServeConfig{Addr: "127.0.0.1:0", QueueDepth: 4096, Tracer: s.tracer})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	if err := srv.Start(); err != nil {
		srv.Close()
		return nil, err
	}
	s.url = "http://" + srv.Addr() + "/predict"
	s.promo = &promoRecorder{inner: buckwild.SnapshotPromoter(srv), srv: srv, models: map[uint64]serve.Predictor{}}
	if s.ckptDir, err = os.MkdirTemp(c.workDir, "serve-ckpt-*"); err != nil {
		s.close()
		return nil, err
	}
	if _, err := s.trainRound(c, in.serveData, context.Background(), 1, nil, nil); err != nil {
		s.close()
		return nil, fmt.Errorf("first promotion: %w", err)
	}
	if srv.Promotions() == 0 {
		s.close()
		return nil, fmt.Errorf("the bootstrap round promoted nothing")
	}
	for i := 0; i < c.p; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}})
	}
	warm := s.window(c, in.corpus, 0, warmupPerConn)
	if warm.failed > 0 {
		s.close()
		return nil, fmt.Errorf("%d of %d warm-up requests failed", warm.failed, warm.failed+warm.ok)
	}
	return s, nil
}

func (s *server) close() {
	for _, cl := range s.clients {
		cl.CloseIdleConnections()
	}
	s.srv.Close()
	os.RemoveAll(s.ckptDir)
}

// trainRound extends the epoch horizon by epochs and runs the supervisor to
// it, resuming from the previous round's checkpoint and promoting every
// checkpoint. It is the body of the `buckwild serve` training loop.
func (s *server) trainRound(c *runCtx, ds *buckwild.DenseDataset, ctx context.Context, epochs int, hooks buckwild.Hooks, tracer *buckwild.Tracer) (*buckwild.RunReport, error) {
	s.horizon += epochs
	cfg := buckwild.Config{
		Signature: "D8M8", Threads: 1, StepSize: 6 / float32(ds.Dim()), Epochs: s.horizon,
		Seed: c.seed, Hooks: hooks, Tracer: tracer, Context: ctx,
	}
	rc := buckwild.RunConfig{CheckpointDir: s.ckptDir, CheckpointEvery: 1, Snapshotter: s.promo}
	return buckwild.RunDense(cfg, rc, ds)
}

// stepMeter streams per-epoch cumulative step counts into a shared counter
// so that a window sees live training throughput even when its round is
// cancelled half-way. OnEpoch runs on the coordinating goroutine.
type stepMeter struct {
	buckwild.NopHooks
	total *atomic.Int64
	last  uint64
}

func (m *stepMeter) OnEpoch(ei buckwild.EpochInfo) {
	if ei.Steps >= m.last {
		m.total.Add(int64(ei.Steps - m.last))
	}
	m.last = ei.Steps
}

// windowResult is one closed-loop window's client-side observations.
type windowResult struct {
	ok, failed int64
	wall       time.Duration
	lat        []float64 // microseconds, accepted requests
	byClass    [numClasses][]float64
}

// response is the part of the /predict reply the checks read.
type response struct {
	Margin    *float32  `json:"margin"`
	Margins   []float32 `json:"margins"`
	Promotion uint64    `json:"promotion"`
}

var promotionKey = []byte(`"promotion":`)

// promotionOf scans a reply for its promotion sequence number without a
// full decode, so that checking every reply stays cheap next to the request
// itself.
func promotionOf(body []byte) (uint64, bool) {
	i := bytes.Index(body, promotionKey)
	if i < 0 {
		return 0, false
	}
	var n uint64
	digits := 0
	for _, b := range body[i+len(promotionKey):] {
		if b < '0' || b > '9' {
			break
		}
		n = n*10 + uint64(b-'0')
		digits++
	}
	return n, digits > 0
}

// window replays the corpus over every connection, closed loop, for dur
// (or, when perConn > 0, for exactly perConn requests per connection) and
// checks each reply as it arrives.
func (s *server) window(c *runCtx, corpus []request, dur time.Duration, perConn int) windowResult {
	type connResult struct {
		windowResult
		errs []string // the first few broken invariants; one would otherwise repeat thousands of times
	}
	const maxErrs = 3
	results := make([]connResult, len(s.clients))
	deadline := time.Now().Add(dur)
	start := time.Now()
	var wg sync.WaitGroup
	for ci, client := range s.clients {
		wg.Add(1)
		go func(ci int, client *http.Client) {
			defer wg.Done()
			r := &results[ci]
			var lastPromo uint64
			var buf bytes.Buffer
			// Connections start at different corpus offsets so that they
			// do not send the same class in lockstep.
			offset := ci * (corpusSize / len(s.clients))
			for i := 0; ; i++ {
				if perConn > 0 {
					if i >= perConn {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				idx := (offset + i) % len(corpus)
				req := &corpus[idx]
				t0 := time.Now()
				resp, err := client.Post(s.url, "application/json", bytes.NewReader(req.Body))
				if err != nil {
					r.failed++
					continue
				}
				buf.Reset()
				_, err = io.Copy(&buf, resp.Body)
				resp.Body.Close()
				us := float64(time.Since(t0).Nanoseconds()) / 1e3
				if err != nil || resp.StatusCode != http.StatusOK {
					r.failed++
					continue
				}
				r.ok++
				r.lat = append(r.lat, us)
				r.byClass[req.Class] = append(r.byClass[req.Class], us)
				var msg string
				promo, found := promotionOf(buf.Bytes())
				switch {
				case !found:
					msg = fmt.Sprintf("reply without a promotion number: %s", buf.Bytes())
				case promo < lastPromo:
					msg = fmt.Sprintf("connection %d saw promotion %d after %d", ci, promo, lastPromo)
				case i%verifyEvery == 0:
					msg = s.verify(c, req, buf.Bytes())
				}
				lastPromo = max(lastPromo, promo)
				if msg != "" && len(r.errs) < maxErrs {
					r.errs = append(r.errs, msg)
				}
			}
		}(ci, client)
	}
	wg.Wait()
	total := windowResult{wall: time.Since(start)}
	for i := range results {
		r := &results[i]
		total.ok += r.ok
		total.failed += r.failed
		total.lat = append(total.lat, r.lat...)
		for k := range r.byClass {
			total.byClass[k] = append(total.byClass[k], r.byClass[k]...)
		}
		for _, e := range r.errs {
			c.checkf("serve: %s", e)
		}
	}
	s.ok.Add(total.ok)
	c.attempted += total.ok + total.failed
	c.failed += total.failed
	sort.Float64s(total.lat)
	return total
}

// verify decodes one reply and compares its margins, bit for bit, with what
// the model that answered it gives in process.
func (s *server) verify(c *runCtx, req *request, body []byte) string {
	var resp response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Sprintf("undecodable reply %q: %v", body, err)
	}
	m := s.promo.model(resp.Promotion)
	// A reply can name a promotion the recorder is still writing down: the
	// swap happens inside the wrapped call, the bookkeeping after it.
	for i := 0; m == nil && i < 200; i++ {
		time.Sleep(time.Millisecond)
		m = s.promo.model(resp.Promotion)
	}
	if m == nil {
		return fmt.Sprintf("reply names promotion %d, which was never made", resp.Promotion)
	}
	var got, want []float32
	switch req.Class {
	case classDense:
		v, err := m.PredictDense(req.X[0])
		if err != nil {
			return err.Error()
		}
		want = []float32{v}
	case classSparse:
		v, err := m.PredictSparse(req.Idx, req.Val)
		if err != nil {
			return err.Error()
		}
		want = []float32{v}
	case classBatch:
		var err error
		if want, err = m.PredictBatch(req.X, nil); err != nil {
			return err.Error()
		}
	}
	if resp.Margin != nil {
		got = []float32{*resp.Margin}
	} else {
		got = resp.Margins
	}
	if c.corrupt.servedMargin && len(got) > 0 {
		got[0] = math.Float32frombits(math.Float32bits(got[0]) ^ 1)
	}
	if !sameFloat32s(got, want) {
		return fmt.Sprintf("served margins %v differ from Model.Predict* %v (promotion %d)", got, want, resp.Promotion)
	}
	return ""
}

// servePhase measures the four request metrics and, with training beside
// serving, train_nps. Each round is one closed-loop window.
type servePhase struct {
	c    *runCtx
	span openSpan // the current round's
	in   *inputs
	// all pools the windows' observations for the layer metrics.
	all windowResult
	// steps meters the training beside serving.
	steps atomic.Int64
}

func (c *runCtx) newServePhase(in *inputs) (phase, error) {
	p := &servePhase{c: c, in: in}
	if c.traced() {
		c.replayServe(in, c.root)
	}
	return p, nil
}

// trainBeside runs the horizon-extension training loop until stop is
// called; stop returns the loop's error, if it ended on one.
func (p *servePhase) trainBeside() (stop func() error) {
	c, s := p.c, p.in.srv
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		for ctx.Err() == nil {
			var tracer *buckwild.Tracer
			if c.traced() {
				tracer = buckwild.NewTracer(1 << 10)
			}
			offset := c.rec.now()
			t0 := time.Now()
			rep, err := s.trainRound(c, p.in.serveData, ctx, roundEpochs, &stepMeter{total: &p.steps}, tracer)
			if err != nil {
				if ctx.Err() != nil {
					err = nil // cancelled: the window is over
				}
				done <- err
				return
			}
			if c.traced() {
				c.addRun(p.span.id, offset, rep.Stats, time.Since(t0), tracer)
			}
		}
		done <- nil
	}()
	return func() error {
		cancel()
		return <-done
	}
}

func (p *servePhase) round(slice time.Duration, _ bool) error {
	c, s := p.c, p.in.srv
	p.span = c.rec.begin(c.root, "harness", "phase:serve")
	defer p.span.end()
	stop := func() error { return nil }
	if c.w.Serve.Train {
		stop = p.trainBeside()
	}
	// Warm-up window: the connections were warmed in set-up, but since
	// then the other phases ran and the training loop has only just
	// started.
	warm := s.window(c, p.in.corpus, slice/20, 0)
	sp := c.rec.begin(p.span.id, "serve", "window")
	steps0 := p.steps.Load()
	w := s.window(c, p.in.corpus, slice-slice/20, 0)
	steps1 := p.steps.Load()
	sp.endArgs(map[string]string{"ok": fmt.Sprint(w.ok), "failed": fmt.Sprint(w.failed)})
	if err := stop(); c.op(err) != nil {
		return fmt.Errorf("training beside serving: %w", err)
	}
	if w.ok == 0 {
		return fmt.Errorf("a window answered no request")
	}
	c.sample("req_per_s", float64(w.ok)/w.wall.Seconds())
	c.sample("req_p50_us", quantileSorted(w.lat, 0.5))
	tail, label := tailAtMost99(len(w.lat))
	c.sample("req_p99_us", quantileSorted(w.lat, tail))
	c.tailLabel = label
	if c.w.Serve.Train {
		c.sample("train_nps", float64(steps1-steps0)*float64(p.in.serveData.Dim())/w.wall.Seconds())
	}
	p.all.ok += w.ok + warm.ok
	p.all.failed += w.failed + warm.failed
	p.all.lat = append(p.all.lat, w.lat...)
	for k := range w.byClass {
		p.all.byClass[k] = append(p.all.byClass[k], w.byClass[k]...)
	}
	return nil
}

func (p *servePhase) finish() error {
	c, s := p.c, p.in.srv
	// One value per run: a clean run reads 1/(attempted+1), and a single
	// failed or refused request doubles it.
	c.sample("req_fail_ratio", float64(p.all.failed+1)/float64(p.all.ok+p.all.failed+1))

	// Drain, then the zero-drop accounting: every request the server
	// admitted and answered must be a 200 some client saw.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.op(s.srv.Drain(ctx)); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	stats := s.srv.Metrics().Snapshot()
	if int64(stats.Requests) != s.ok.Load() {
		c.checkf("serve: server answered %d requests, clients saw %d 200s (dropped %d)",
			stats.Requests, s.ok.Load(), int64(stats.Requests)-s.ok.Load())
	}
	if c.traced() {
		c.serveLayers(s, stats, p.all)
	}
	return nil
}

// serveLayers turns the server's own counters and tracer spans, and the
// client-side latencies, into the serve layer's metrics.
func (c *runCtx) serveLayers(s *server, stats *buckwild.ServeStats, all windowResult) {
	sort.Float64s(all.lat)
	c.setLayer("serve.server_us_p50", stats.LatencyUS.Quantile(0.5))
	c.setLayer("serve.server_us_p99", stats.LatencyUS.Quantile(0.99))
	c.setLayer("serve.batch_size_mean", stats.BatchSize.Mean())
	c.setLayer("serve.rejected", float64(stats.Rejected))
	c.setLayer("serve.promotions", float64(stats.Promotions))
	c.setLayer("serve.promotions_refused", float64(stats.PromotionsRefused))
	// The server's tracer ring holds the spans of the last few thousand
	// requests: exact server-side durations, where ServeStats.LatencyUS
	// is a power-of-two histogram.
	var queueUS, predictUS, requestUS []float64
	for _, sp := range s.tracer.Snapshot().Spans {
		if sp.Cat != "serve" {
			continue
		}
		us := float64(sp.Dur.Nanoseconds()) / 1e3
		switch sp.Name {
		case "queue-wait":
			queueUS = append(queueUS, us)
		case "predict":
			predictUS = append(predictUS, us)
		case "request":
			requestUS = append(requestUS, us)
		}
	}
	sort.Float64s(queueUS)
	sort.Float64s(predictUS)
	sort.Float64s(requestUS)
	c.setLayer("serve.queue_wait_us_p50", quantileSorted(queueUS, 0.5))
	c.setLayer("serve.queue_wait_us_p99", quantileSorted(queueUS, 0.99))
	c.setLayer("serve.predict_us_p50", quantileSorted(predictUS, 0.5))
	c.setLayer("serve.codec_us_p50", c.layer["serve.handler_us_p50"]-quantileSorted(queueUS, 0.5)-quantileSorted(predictUS, 0.5))
	c.setLayer("serve.net_gap_us_p50", quantileSorted(all.lat, 0.5)-quantileSorted(requestUS, 0.5))
	c.setLayer("serve.net_gap_us_p99", quantileSorted(all.lat, 0.99)-quantileSorted(requestUS, 0.99))
	for class, name := range map[int]string{classDense: "serve.dense_p99_us", classSparse: "serve.sparse_p99_us", classBatch: "serve.batch_p99_us"} {
		lat := all.byClass[class]
		sort.Float64s(lat)
		c.setLayer(name, quantileSorted(lat, 0.99))
	}
	s.promo.mu.Lock()
	c.setLayer("serve.promote_ms_p50", median(s.promo.ms))
	s.promo.mu.Unlock()
}

// replayServe makes the serve layer's replay spans: the handler called in
// process (no socket), and the promotion path called directly.
func (c *runCtx) replayServe(in *inputs, parent int) {
	s := in.srv
	h := s.srv.Handler()
	const calls = 2000
	lat := make([]float64, 0, calls)
	sp := c.rec.begin(parent, "serve", "replay:handler")
	for i := 0; i < calls; i++ {
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(in.corpus[i%len(in.corpus)].Body))
		rw := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rw, req)
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		c.attempted++
		if rw.Code == http.StatusOK {
			s.ok.Add(1)
		} else {
			c.failed++
		}
	}
	sp.end()
	sort.Float64s(lat)
	c.setLayer("serve.handler_us_p50", quantileSorted(lat, 0.5))
	c.setLayer("serve.handler_us_p99", quantileSorted(lat, 0.99))

	// The promotion path on its own: the current model framed, CRC'd,
	// decoded and swapped in again. The loss of a replayed promotion is
	// the promoted model's, so the promotion gate sees nothing unusual.
	pred, epoch, _ := s.srv.Current()
	if m, ok := pred.(*buckwild.Model); ok {
		sp := c.rec.begin(parent, "serve", "replay:promote")
		for i := 0; i < 8; i++ {
			s.promo.OnSnapshot(buckwild.ModelSnapshot{Epoch: epoch, Loss: 0.5, Model: m})
		}
		sp.end()
	}
}
