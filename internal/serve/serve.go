// Package serve is the production serving tier: an HTTP daemon that
// answers /predict requests off an atomically-swapped immutable model
// while training continues in the background. The design splits into
// three small pieces wired by channels and one atomic pointer:
//
//   - Admission: each request is turned into a job and offered to a
//     bounded queue with a non-blocking send — a full queue answers 429
//     immediately (load-shedding beats queueing collapse), a draining
//     server answers 503, a server with no promoted model answers 503.
//   - Batching: one batcher goroutine drains the queue, groups up to
//     MaxBatch examples across jobs, snapshots the current model once
//     per batch, and predicts — so a hot promotion lands between
//     batches, never inside one, and no reader can observe a torn
//     model.
//   - Promotion: Promote swaps the model pointer after the caller has
//     validated the candidate (the facade routes snapshots through the
//     framed model format, CRC and all); RefusePromotions installs a
//     gate the health watchdog uses so a diverged model is never
//     promoted.
//
// Graceful drain (SIGTERM) follows the same order: stop admitting, wait
// for every accepted request to be answered, then stop the batcher and
// shut the listener down — in-flight requests always complete.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"buckwild/internal/obs"
)

// Predictor is the immutable model handle the serving tier swaps: the
// facade's Model satisfies it. Implementations must be safe for
// concurrent use and must never mutate after Promote — atomicity of a
// promotion is exactly the atomicity of one pointer swap.
type Predictor interface {
	Dim() int
	PredictDense(x []float32) (float32, error)
	PredictSparse(idx []int32, vals []float32) (float32, error)
	PredictBatch(xs [][]float32, out []float32) ([]float32, error)
}

// PromWriter is anything that can render itself in the Prometheus text
// format; the daemon's /metrics endpoint appends Extra writers (the
// training side's LiveMetrics) after its own serving counters.
type PromWriter interface {
	WriteProm(w io.Writer) error
}

// Config configures a Server. The zero value is usable: Fill supplies
// localhost defaults sized for a single-machine daemon.
type Config struct {
	// Addr is the listen address ("127.0.0.1:8372" by default; use
	// ":0" to let the kernel pick a port and read it back from Addr()).
	Addr string
	// MaxBatch caps the examples grouped into one predict call (64).
	MaxBatch int
	// QueueDepth bounds the admission queue in jobs; a full queue
	// answers 429 (256).
	QueueDepth int
	// BatchWait is how long the batcher holds a non-full batch open
	// waiting for more work. Zero means opportunistic: serve whatever
	// is queued right now — lowest latency, smaller batches.
	BatchWait time.Duration
	// DrainTimeout bounds the graceful drain on SIGTERM (10s).
	DrainTimeout time.Duration
	// Metrics receives the serving counters (allocated if nil).
	Metrics *obs.ServeMetrics
	// Extra prom writers are appended to /metrics after the serving
	// counters (the training side's LiveMetrics goes here).
	Extra []PromWriter
	// Tracer, when non-nil, records request -> batch -> predict spans,
	// per-job queue-wait spans, and batch-assembly spans, all tagged with
	// the serving model's epoch and promotion sequence.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives structured operational logs
	// (promotions, drain progress, slow requests). Nil is silent, the
	// repo's nil-means-off logging convention.
	Logger *slog.Logger
	// Flight, when non-nil, records promotions, refusals, slow requests
	// and drain transitions into the post-mortem ring, served at
	// GET /debug/flight.
	Flight *obs.FlightRecorder
	// SlowRequest, when positive, is the latency threshold above which a
	// completed request is logged (and flight-recorded) as an offender.
	SlowRequest time.Duration
	// Bundle, when non-nil, gets a debug bundle triggered on each slow
	// request (debounced by the bundler's cooldown) and is served on
	// demand at GET /debug/bundle.
	Bundle *obs.Bundler
	// Dash, when non-nil, is the live dashboard, served at
	// GET /debug/dash with its SSE feed at GET /debug/dash/events.
	Dash *obs.Dash
}

// Fill applies defaults to unset fields and validates the rest.
func (c *Config) Fill() error {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8372"
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.MaxBatch < 0 {
		return fmt.Errorf("serve: MaxBatch %d is negative", c.MaxBatch)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("serve: QueueDepth %d is negative", c.QueueDepth)
	}
	if c.BatchWait < 0 {
		return fmt.Errorf("serve: BatchWait %v is negative", c.BatchWait)
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.DrainTimeout < 0 {
		return fmt.Errorf("serve: DrainTimeout %v is negative", c.DrainTimeout)
	}
	if c.SlowRequest < 0 {
		return fmt.Errorf("serve: SlowRequest %v is negative", c.SlowRequest)
	}
	if c.Metrics == nil {
		c.Metrics = &obs.ServeMetrics{}
	}
	return nil
}

// Trace track ids for the serving tier (the training engine uses small
// worker-indexed tids; these stay clear of them).
const (
	traceTIDRequest = 900
	traceTIDBatch   = 901
)

// readHeaderTimeout bounds how long a connection may take to deliver one
// request's header block, so a client that dribbles a header cannot hold
// a connection (and its goroutine) forever. On a new connection the clock
// starts at accept; on a keep-alive connection it starts when the next
// request's first bytes arrive, so idle gaps do not count, and no body or
// idle timeout is set: idle keep-alive connections stay open.
const readHeaderTimeout = 5 * time.Second

// promoted is what one successful Promote installs: the model handle
// plus its provenance. Immutable once stored.
type promoted struct {
	p     Predictor
	epoch int
	loss  float64
	seq   uint64
}

// job is one admitted request waiting for the batcher: either a set of
// dense examples or one sparse example. The batcher fills out/err and
// closes done.
type job struct {
	dense [][]float32
	idx   []int32
	vals  []float32

	// enq is the tracer-clock time the handler enqueued the job (0
	// without a tracer); the batcher turns it into a queue-wait span.
	enq time.Duration

	out   []float32
	epoch int
	seq   uint64
	err   error
	done  chan struct{}
}

func (j *job) examples() int {
	if j.dense != nil {
		return len(j.dense)
	}
	return 1
}

// Server is the serving daemon. Create one with New, expose it with
// Start (or mount Handler on a listener of your own), feed it models
// with Promote, and stop it with Drain.
type Server struct {
	cfg Config

	cur      atomic.Pointer[promoted]
	promoSeq atomic.Uint64
	refuse   atomic.Pointer[string]

	queue chan *job

	// mu orders admission against drain: handlers take the read side to
	// (check draining, join the in-flight group) atomically; Drain takes
	// the write side to flip draining, so no handler can slip past a
	// drain and Add on a WaitGroup being waited on.
	mu       sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	stopBatch chan struct{}
	stopOnce  sync.Once
	batchDone chan struct{}

	httpSrv  *http.Server
	listener net.Listener
	serveErr chan error
}

// New validates cfg, starts the batcher, and returns a Server that is
// ready for Handler/Promote but not yet listening (call Start for
// that).
func New(cfg Config) (*Server, error) {
	if err := cfg.Fill(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		queue:     make(chan *job, cfg.QueueDepth),
		stopBatch: make(chan struct{}),
		batchDone: make(chan struct{}),
		serveErr:  make(chan error, 1),
	}
	if t := cfg.Tracer; t != nil {
		t.NameTrack(traceTIDRequest, "serve/requests")
		t.NameTrack(traceTIDBatch, "serve/batcher")
	}
	go s.batcher()
	return s, nil
}

// Metrics returns the serving counter set.
func (s *Server) Metrics() *obs.ServeMetrics { return s.cfg.Metrics }

// logInfo and logWarn nil-check the configured logger: nil means silent.
func (s *Server) logInfo(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(msg, args...)
	}
}

func (s *Server) logWarn(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Warn(msg, args...)
	}
}

// Promote installs p as the serving model, identified by its cumulative
// training epoch and loss, and returns the promotion sequence number.
// The swap is one atomic pointer store: requests batched before the
// swap finish on the old model, requests batched after run on the new
// one, and no request ever sees a mixture. Promotion is refused while a
// RefusePromotions gate is installed (the health watchdog's divergence
// path) or when p carries a non-finite loss.
func (s *Server) Promote(p Predictor, epoch int, loss float64) (uint64, error) {
	if p == nil || p.Dim() == 0 {
		return 0, fmt.Errorf("serve: refusing to promote an empty model")
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		s.cfg.Metrics.PromotionRefused()
		s.cfg.Flight.Record("serve", "promotion-refused",
			fmt.Sprintf("non-finite loss %v at epoch %d", loss, epoch), nil)
		return 0, fmt.Errorf("serve: refusing to promote a model with loss %v", loss)
	}
	if r := s.refuse.Load(); r != nil {
		s.cfg.Metrics.PromotionRefused()
		s.cfg.Flight.Record("serve", "promotion-refused", *r,
			map[string]string{"epoch": fmt.Sprint(epoch)})
		return 0, fmt.Errorf("serve: promotion refused: %s", *r)
	}
	seq := s.promoSeq.Add(1)
	s.cur.Store(&promoted{p: p, epoch: epoch, loss: loss, seq: seq})
	s.cfg.Metrics.Promoted(epoch, math.Float64bits(loss))
	if t := s.cfg.Tracer; t != nil {
		t.Instant("serve", "promote", traceTIDBatch, map[string]string{
			"epoch": fmt.Sprint(epoch), "seq": fmt.Sprint(seq),
		})
	}
	s.cfg.Flight.Record("serve", "promotion",
		fmt.Sprintf("promoted model at epoch %d", epoch), map[string]string{
			"epoch": fmt.Sprint(epoch), "loss": fmt.Sprintf("%.6g", loss),
			"promotion": fmt.Sprint(seq),
		})
	s.logInfo("promoted model",
		slog.Int("epoch", epoch), slog.Float64("loss", loss), slog.Uint64("promotion", seq))
	return seq, nil
}

// RefusePromotions installs a promotion gate: every later Promote fails
// with the given reason. The health watchdog's
// divergence path calls this so a diverged model is never promoted —
// the previously promoted (healthy) model keeps serving.
func (s *Server) RefusePromotions(reason string) {
	if reason == "" {
		reason = "promotions disabled"
	}
	s.refuse.Store(&reason)
	s.cfg.Flight.Record("serve", "promotion-gate", reason, nil)
	s.logWarn("refusing promotions", slog.String("reason", reason))
}

// Promotions returns the number of successful promotions so far.
func (s *Server) Promotions() uint64 { return s.promoSeq.Load() }

// Current returns the live model with its provenance (training epoch
// and promotion sequence number); a nil Predictor means nothing has
// been promoted yet.
func (s *Server) Current() (Predictor, int, uint64) {
	p := s.cur.Load()
	if p == nil {
		return nil, 0, 0
	}
	return p.p, p.epoch, p.seq
}

// batcher is the single consumer of the admission queue: it groups jobs
// up to MaxBatch examples (waiting at most BatchWait for stragglers),
// snapshots the model once per batch, and completes each job.
func (s *Server) batcher() {
	defer close(s.batchDone)
	for {
		var first *job
		select {
		case first = <-s.queue:
		case <-s.stopBatch:
			// Drain leftovers (jobs whose handlers already gave up on
			// a cancelled request context) so nothing dangles.
			for {
				select {
				case j := <-s.queue:
					s.serveBatch([]*job{j})
				default:
					return
				}
			}
		}
		asm := s.cfg.Tracer.Begin("serve", "batch-assembly", traceTIDBatch)
		batch := []*job{first}
		n := first.examples()
		var deadline <-chan time.Time
		var timer *time.Timer
		if s.cfg.BatchWait > 0 {
			timer = time.NewTimer(s.cfg.BatchWait)
			deadline = timer.C
		}
	fill:
		for n < s.cfg.MaxBatch {
			if deadline == nil {
				select {
				case j := <-s.queue:
					batch = append(batch, j)
					n += j.examples()
				default:
					break fill
				}
			} else {
				select {
				case j := <-s.queue:
					batch = append(batch, j)
					n += j.examples()
				case <-deadline:
					break fill
				case <-s.stopBatch:
					break fill
				}
			}
		}
		if timer != nil {
			timer.Stop()
		}
		if s.cfg.Tracer != nil {
			asm.EndArgs(map[string]string{"jobs": fmt.Sprint(len(batch)), "examples": fmt.Sprint(n)})
		}
		s.serveBatch(batch)
	}
}

// serveBatch predicts every job in the batch against one model
// snapshot.
func (s *Server) serveBatch(batch []*job) {
	tr := s.cfg.Tracer
	span := tr.Begin("serve", "batch", traceTIDBatch)
	pm := s.cur.Load()
	var modelArgs map[string]string
	if tr != nil && pm != nil {
		modelArgs = map[string]string{
			"model_epoch": fmt.Sprint(pm.epoch), "promotion": fmt.Sprint(pm.seq),
		}
	}
	total := 0
	for _, j := range batch {
		total += j.examples()
		if tr != nil {
			// The job's time in the admission queue, on the request track.
			tr.RecordSpan(obs.Span{
				Name: "queue-wait", Cat: "serve", TID: traceTIDRequest,
				Start: j.enq, Dur: tr.Now() - j.enq, Args: modelArgs,
			})
		}
		if pm == nil {
			j.err = fmt.Errorf("serve: no model promoted yet")
			close(j.done)
			continue
		}
		j.epoch, j.seq = pm.epoch, pm.seq
		pspan := tr.Begin("serve", "predict", traceTIDBatch)
		if j.dense != nil {
			j.out = make([]float32, len(j.dense))
			_, j.err = pm.p.PredictBatch(j.dense, j.out)
		} else {
			j.out = make([]float32, 1)
			j.out[0], j.err = pm.p.PredictSparse(j.idx, j.vals)
		}
		if tr != nil {
			pspan.EndArgs(map[string]string{
				"examples":    fmt.Sprint(j.examples()),
				"model_epoch": fmt.Sprint(j.epoch), "promotion": fmt.Sprint(j.seq),
			})
		}
		close(j.done)
	}
	s.cfg.Metrics.Batch(total)
	if tr != nil {
		args := map[string]string{"jobs": fmt.Sprint(len(batch)), "examples": fmt.Sprint(total)}
		for k, v := range modelArgs {
			args[k] = v
		}
		span.EndArgs(args)
	}
}

// predictRequest is the /predict JSON body: exactly one of x (single
// dense), indices+values (single sparse), or batch (dense batch).
type predictRequest struct {
	X       []float32   `json:"x,omitempty"`
	Indices []int32     `json:"indices,omitempty"`
	Values  []float32   `json:"values,omitempty"`
	Batch   [][]float32 `json:"batch,omitempty"`
}

// predictResponse is the /predict JSON reply. Margin is set for single
// requests, Margins for batches; ModelEpoch and Promotion identify the
// model snapshot that answered.
type predictResponse struct {
	Margin     *float32  `json:"margin,omitempty"`
	Margins    []float32 `json:"margins,omitempty"`
	ModelEpoch int       `json:"model_epoch"`
	Promotion  uint64    `json:"promotion"`
	Error      string    `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Handler returns the daemon's HTTP mux: POST /predict, GET /healthz,
// GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	if s.cfg.Bundle != nil {
		mux.Handle("/debug/bundle", s.cfg.Bundle)
	}
	s.cfg.Dash.Register(mux, "/debug/dash")
	return mux
}

// handleFlight serves the flight recorder's JSON dump: the post-mortem
// ring, readable from a live daemon. 404 when no recorder is installed.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Flight == nil {
		http.NotFound(w, r)
		return
	}
	s.cfg.Flight.ServeHTTP(w, r)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, predictResponse{Error: "serve: POST only"})
		return
	}
	start := time.Now()
	span := s.cfg.Tracer.Begin("serve", "request", traceTIDRequest)

	// Admission, part 1: drain gate. The read lock makes (check, join
	// in-flight group) atomic against Drain's write-side flip.
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		s.cfg.Metrics.Unavailable()
		writeJSON(w, http.StatusServiceUnavailable, predictResponse{Error: "serve: draining"})
		span.EndArgs(map[string]string{"status": "503"})
		return
	}
	s.inflight.Add(1)
	s.mu.RUnlock()
	defer s.inflight.Done()
	s.cfg.Metrics.InFlight(1)
	defer s.cfg.Metrics.InFlight(-1)

	pm := s.cur.Load()
	if pm == nil {
		s.cfg.Metrics.Unavailable()
		writeJSON(w, http.StatusServiceUnavailable, predictResponse{Error: "serve: no model promoted yet"})
		span.EndArgs(map[string]string{"status": "503"})
		return
	}

	req, err := s.readRequest(w, r, pm.p.Dim())
	if err != nil {
		status, msg := http.StatusBadRequest, fmt.Sprintf("serve: bad request body: %v", err)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status, msg = http.StatusRequestEntityTooLarge, "serve: request body over 16 MiB"
		}
		s.cfg.Metrics.BadRequest()
		writeJSON(w, status, predictResponse{Error: msg})
		span.EndArgs(map[string]string{"status": fmt.Sprint(status)})
		return
	}
	j := &job{done: make(chan struct{})}
	switch {
	case req.Batch != nil:
		j.dense = req.Batch
	case req.X != nil:
		j.dense = [][]float32{req.X}
	case req.Indices != nil || req.Values != nil:
		j.idx, j.vals = req.Indices, req.Values
	default:
		s.cfg.Metrics.BadRequest()
		writeJSON(w, http.StatusBadRequest, predictResponse{Error: "serve: request needs x, indices+values, or batch"})
		span.EndArgs(map[string]string{"status": "400"})
		return
	}

	// Admission, part 2: bounded queue. A full queue sheds load now
	// rather than letting latency collapse later.
	j.enq = s.cfg.Tracer.Now()
	select {
	case s.queue <- j:
	default:
		s.cfg.Metrics.Rejected()
		writeJSON(w, http.StatusTooManyRequests, predictResponse{Error: "serve: queue full"})
		span.EndArgs(map[string]string{"status": "429"})
		return
	}

	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone; the batcher will still complete the job (nobody
		// reads the result) so the queue never wedges.
		span.EndArgs(map[string]string{"status": "cancelled"})
		return
	}
	if j.err != nil {
		s.cfg.Metrics.BadRequest()
		writeJSON(w, http.StatusBadRequest, predictResponse{Error: j.err.Error(), ModelEpoch: j.epoch, Promotion: j.seq})
		span.EndArgs(map[string]string{"status": "400"})
		s.noteSlow(time.Since(start), "400", j)
		return
	}
	resp := predictResponse{ModelEpoch: j.epoch, Promotion: j.seq}
	if req.Batch != nil {
		resp.Margins = j.out
	} else {
		resp.Margin = &j.out[0]
	}
	writeJSON(w, http.StatusOK, resp)
	elapsed := time.Since(start)
	s.cfg.Metrics.Request(j.examples(), uint64(elapsed.Microseconds()))
	if s.cfg.Tracer != nil {
		span.EndArgs(map[string]string{
			"status": "200", "examples": fmt.Sprint(j.examples()),
			"model_epoch": fmt.Sprint(j.epoch), "promotion": fmt.Sprint(j.seq),
		})
	}
	s.noteSlow(elapsed, "200", j)
}

// Request bodies are read whole, up to maxBodyBytes, into pooled buffers;
// a buffer a large body grew past maxPooledBody is dropped rather than
// pinned in the pool.
const (
	maxBodyBytes  = 16 << 20
	maxPooledBody = 1 << 20
)

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readRequest reads and decodes one /predict body: decodePredict where the
// body is in its grammar, encoding/json on the same bytes where it
// declines, so every error is encoding/json's. A body over the limit
// returns *http.MaxBytesError. Nothing returned aliases the pooled buffer.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, dim int) (predictRequest, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return predictRequest{}, err
	}
	req, ok := decodePredict(buf.Bytes(), dim)
	if ok {
		return req, nil
	}
	s.cfg.Metrics.DecodeFallback()
	req = predictRequest{}
	err := json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&req)
	return req, err
}

// noteSlow logs (and flight-records) a completed request whose latency
// crossed the SlowRequest threshold, tagged with the model snapshot that
// answered it so tail latency can be correlated with hot promotions.
func (s *Server) noteSlow(elapsed time.Duration, status string, j *job) {
	if s.cfg.SlowRequest <= 0 || elapsed < s.cfg.SlowRequest {
		return
	}
	s.logWarn("slow request",
		slog.Duration("elapsed", elapsed), slog.String("status", status),
		slog.Int("examples", j.examples()),
		slog.Int("model_epoch", j.epoch), slog.Uint64("promotion", j.seq))
	s.cfg.Flight.Record("serve", "slow-request",
		fmt.Sprintf("request took %v (threshold %v)", elapsed, s.cfg.SlowRequest),
		map[string]string{
			"elapsed": elapsed.String(), "status": status,
			"model_epoch": fmt.Sprint(j.epoch), "promotion": fmt.Sprint(j.seq),
		})
	s.cfg.Bundle.Trigger("slow-request",
		fmt.Sprintf("request took %v (threshold %v, model epoch %d)",
			elapsed, s.cfg.SlowRequest, j.epoch))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	pm := s.cur.Load()
	h := map[string]any{"status": "ok", "draining": draining, "promotions": s.promoSeq.Load()}
	code := http.StatusOK
	if pm != nil {
		h["model_epoch"] = pm.epoch
		h["model_loss"] = pm.loss
	} else {
		// Readiness semantics: a daemon with nothing promoted cannot
		// answer /predict, so a load balancer must not route to it yet.
		h["status"] = "no-model"
		code = http.StatusServiceUnavailable
	}
	if r := s.refuse.Load(); r != nil {
		h["promotions_refused"] = *r
	}
	writeJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.cfg.Metrics.WriteProm(w); err != nil {
		return
	}
	for _, e := range s.cfg.Extra {
		if e == nil {
			continue
		}
		if err := e.WriteProm(w); err != nil {
			return
		}
	}
}

// Start binds the configured address and serves in the background; read
// the bound address back with Addr (useful with ":0").
func (s *Server) Start() error {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	s.listener = l
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		err := s.httpSrv.Serve(l)
		if err != nil && err != http.ErrServerClosed {
			s.serveErr <- err
		}
		close(s.serveErr)
	}()
	s.logInfo("listening", slog.String("addr", l.Addr().String()))
	return nil
}

// Addr returns the bound listen address after Start ("" before).
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Drain performs the graceful SIGTERM shutdown: stop admitting (new
// requests get 503), wait for every accepted request to be answered,
// stop the batcher, and close the listener. ctx bounds the wait; a nil
// ctx uses DrainTimeout. In-flight requests are never dropped: Drain
// returns only after each admitted request has its response written (or
// ctx expires).
func (s *Server) Drain(ctx context.Context) error {
	if ctx == nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
	}
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.cfg.Metrics.SetDraining(true)
		s.cfg.Flight.Record("serve", "drain", "drain started", nil)
		s.logInfo("draining", slog.String("note", "in-flight requests will complete"))
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with requests in flight: %w", ctx.Err())
	}
	// All admitted requests are answered, so the queue is quiet: the
	// batcher can stop.
	s.stopOnce.Do(func() { close(s.stopBatch) })
	select {
	case <-s.batchDone:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted waiting for batcher: %w", ctx.Err())
	}
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("serve: shutdown: %w", err)
		}
	}
	s.cfg.Flight.Record("serve", "drain", "drain complete", nil)
	s.logInfo("drained")
	return nil
}

// Close releases the server immediately (tests and error paths; prefer
// Drain). Safe after Drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopBatch) })
	<-s.batchDone
	if s.httpSrv != nil {
		return s.httpSrv.Close()
	}
	return nil
}
