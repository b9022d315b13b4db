package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"buckwild/internal/obs"
)

// linModel is a test Predictor: a linear model whose every weight is the
// same constant, so the margin of the all-ones example of dimension d is
// exactly const*d. The torn-model race test exploits this: a model
// promoted at epoch e carries weight float32(e) everywhere, so any
// response whose margin disagrees with float32(model_epoch)*d proves a
// reader observed a mixture of two models.
type linModel struct {
	w     []float32
	delay time.Duration // per predict call, to hold requests in flight
	// gate, when non-nil, holds every predict call until it is closed.
	gate chan struct{}
}

func newLin(dim int, val float32) *linModel {
	w := make([]float32, dim)
	for i := range w {
		w[i] = val
	}
	return &linModel{w: w}
}

func (m *linModel) Dim() int { return len(m.w) }

func (m *linModel) PredictDense(x []float32) (float32, error) {
	if m.gate != nil {
		<-m.gate
	}
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	if len(x) != len(m.w) {
		return 0, fmt.Errorf("dim %d vs %d", len(x), len(m.w))
	}
	var s float32
	for i, v := range x {
		s += m.w[i] * v
	}
	return s, nil
}

func (m *linModel) PredictSparse(idx []int32, vals []float32) (float32, error) {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	if len(idx) != len(vals) {
		return 0, fmt.Errorf("%d indices, %d values", len(idx), len(vals))
	}
	var s float32
	for k, j := range idx {
		if j < 0 || int(j) >= len(m.w) {
			return 0, fmt.Errorf("index %d out of range", j)
		}
		s += m.w[j] * vals[k]
	}
	return s, nil
}

func (m *linModel) PredictBatch(xs [][]float32, out []float32) ([]float32, error) {
	if out == nil {
		out = make([]float32, len(xs))
	}
	for i, x := range xs {
		v, err := m.PredictDense(x)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

type resp struct {
	Margin     *float32  `json:"margin"`
	Margins    []float32 `json:"margins"`
	ModelEpoch int       `json:"model_epoch"`
	Promotion  uint64    `json:"promotion"`
	Error      string    `json:"error"`
}

func post(t *testing.T, url, body string) (int, resp) {
	t.Helper()
	r, err := http.Post(url+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer r.Body.Close()
	var pr resp
	if err := json.NewDecoder(r.Body).Decode(&pr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return r.StatusCode, pr
}

func TestPredictEndpoints(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	if _, err := s.Promote(newLin(4, 2), 3, 0.5); err != nil {
		t.Fatalf("Promote: %v", err)
	}

	// Single dense.
	code, pr := post(t, hs.URL, `{"x":[1,1,1,1]}`)
	if code != 200 || pr.Margin == nil || *pr.Margin != 8 {
		t.Fatalf("dense: code %d, resp %+v", code, pr)
	}
	if pr.ModelEpoch != 3 || pr.Promotion != 1 {
		t.Fatalf("provenance: %+v", pr)
	}

	// Single sparse.
	code, pr = post(t, hs.URL, `{"indices":[0,2],"values":[1,3]}`)
	if code != 200 || pr.Margin == nil || *pr.Margin != 8 {
		t.Fatalf("sparse: code %d, resp %+v", code, pr)
	}

	// Batch.
	code, pr = post(t, hs.URL, `{"batch":[[1,1,1,1],[0,0,0,1]]}`)
	if code != 200 || len(pr.Margins) != 2 || pr.Margins[0] != 8 || pr.Margins[1] != 2 {
		t.Fatalf("batch: code %d, resp %+v", code, pr)
	}

	// Malformed: no payload kind.
	if code, _ = post(t, hs.URL, `{}`); code != 400 {
		t.Fatalf("empty request: code %d", code)
	}
	// Malformed: dimension mismatch surfaces the predictor's error.
	if code, pr = post(t, hs.URL, `{"x":[1]}`); code != 400 || pr.Error == "" {
		t.Fatalf("bad dim: code %d, resp %+v", code, pr)
	}
	// GET is rejected.
	r, err := http.Get(hs.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: code %d", r.StatusCode)
	}
}

func TestNoModelYet(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	code, pr := post(t, hs.URL, `{"x":[1]}`)
	if code != http.StatusServiceUnavailable || pr.Error == "" {
		t.Fatalf("no model: code %d, resp %+v", code, pr)
	}
}

func TestPromotionGate(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if _, err := s.Promote(newLin(2, 1), 1, 0.9); err != nil {
		t.Fatalf("first promote: %v", err)
	}
	// NaN/Inf losses and empty models are refused even with no gate.
	if _, err := s.Promote(newLin(2, 9), 2, nanLoss()); err == nil {
		t.Fatal("NaN-loss promotion succeeded")
	}
	if _, err := s.Promote(nil, 2, 0.1); err == nil {
		t.Fatal("nil promotion succeeded")
	}
	if seq, err := s.Promote(newLin(2, 9), 3, 0.1); err != nil || seq != 2 {
		t.Fatalf("ungated promote: seq %d, err %v", seq, err)
	}
	s.RefusePromotions("health watchdog: diverged at epoch 4")
	if _, err := s.Promote(newLin(2, 5), 4, 0.1); err == nil {
		t.Fatal("promotion through the refuse gate succeeded")
	} else if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("gate reason lost: %v", err)
	}
	st := s.Metrics().Snapshot()
	if st.Promotions != 2 || st.PromotionsRefused != 2 {
		t.Fatalf("promotion counters: %+v", st)
	}
	if st.ModelEpoch != 3 {
		t.Fatalf("model epoch gauge: %d", st.ModelEpoch)
	}
}

func nanLoss() float64 {
	var z float64
	return z / z
}

// TestPredictDuringPromotionRace hammers /predict from many clients
// while another goroutine promotes new models as fast as it can. Every
// response must be internally consistent: the margin must equal
// float32(model_epoch) * dim, which only holds if the reader saw exactly
// one model (the promoted pointer swap is atomic and each batch
// snapshots it once). Run under -race this also proves the swap itself
// is clean.
func TestPredictDuringPromotionRace(t *testing.T) {
	const dim = 8
	s, hs := newTestServer(t, Config{QueueDepth: 4096, MaxBatch: 16})
	if _, err := s.Promote(newLin(dim, 1), 1, 1); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var promoteDone sync.WaitGroup
	promoteDone.Add(1)
	go func() {
		defer promoteDone.Done()
		// Weight values track the epoch modulo a small prime so the
		// float32 margin stays exact no matter how many promotions the
		// tight loop manages.
		for e := 2; ; e++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Promote(newLin(dim, float32(e%997)), e, 1); err != nil {
				t.Errorf("promote %d: %v", e, err)
				return
			}
		}
	}()

	body := `{"x":[1,1,1,1,1,1,1,1]}`
	var torn atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				code, pr := post(t, hs.URL, body)
				if code == http.StatusTooManyRequests {
					continue // admission control under load is fine
				}
				if code != 200 || pr.Margin == nil {
					t.Errorf("code %d, resp %+v", code, pr)
					return
				}
				if *pr.Margin != float32(pr.ModelEpoch%997)*dim {
					torn.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	promoteDone.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d responses observed a torn model", n)
	}
}

// TestDrainCompletesInFlight is the SIGTERM-drain contract (the
// buckwild-serve command calls Drain on SIGTERM): requests admitted
// before the drain all complete with 200, requests after it get 503,
// and zero admitted requests are dropped.
func TestDrainCompletesInFlight(t *testing.T) {
	const inFlight = 24
	gated := newLin(2, 3)
	gated.gate = make(chan struct{})
	s, hs := newTestServer(t, Config{QueueDepth: inFlight * 2, MaxBatch: 1})
	if _, err := s.Promote(gated, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Registered after the server's own cleanup, so it runs before it: a
	// failure with the gate shut must not leave Close waiting on the batcher.
	openGate := sync.OnceFunc(func() { close(gated.gate) })
	t.Cleanup(openGate)

	var ok200 atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, pr := post(t, hs.URL, `{"x":[1,1]}`)
			if code == 200 && pr.Margin != nil && *pr.Margin == 6 {
				ok200.Add(1)
			} else {
				t.Errorf("in-flight request: code %d, resp %+v", code, pr)
			}
		}()
	}
	// No request can finish while the gate is shut, so every one of them
	// is admitted and in flight before the drain starts, however slowly
	// the clients are scheduled.
	waitFor(t, "every request admitted", func() bool {
		return s.Metrics().Snapshot().InFlight == inFlight
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	// Open the gate only once the drain has stopped admission, so the
	// drain overlaps all of them.
	waitFor(t, "drain to stop admission", func() bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.draining
	})
	openGate()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if got := ok200.Load(); got != inFlight {
		t.Fatalf("dropped in-flight requests: %d of %d completed", got, inFlight)
	}
	// Post-drain requests are refused, not queued.
	code, _ := post(t, hs.URL, `{"x":[1,1]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: code %d", code)
	}
	st := s.Metrics().Snapshot()
	if st.Requests != inFlight {
		t.Fatalf("request counter: %d", st.Requests)
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionControl(t *testing.T) {
	slow := newLin(2, 1)
	slow.delay = 20 * time.Millisecond
	s, hs := newTestServer(t, Config{QueueDepth: 1, MaxBatch: 1})
	if _, err := s.Promote(slow, 1, 1); err != nil {
		t.Fatal(err)
	}
	const n = 16
	var rejected, served atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _ := post(t, hs.URL, `{"x":[1,1]}`)
			switch code {
			case http.StatusTooManyRequests:
				rejected.Add(1)
			case 200:
				served.Add(1)
			default:
				t.Errorf("unexpected code %d", code)
			}
		}()
	}
	wg.Wait()
	if rejected.Load() == 0 {
		t.Fatal("queue depth 1 with a slow model rejected nothing")
	}
	if served.Load() == 0 {
		t.Fatal("every request was rejected")
	}
	st := s.Metrics().Snapshot()
	if st.Rejected != uint64(rejected.Load()) {
		t.Fatalf("rejected counter %d, observed %d", st.Rejected, rejected.Load())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	if _, err := s.Promote(newLin(2, 1), 5, 0.25); err != nil {
		t.Fatal(err)
	}
	post(t, hs.URL, `{"x":[1,1]}`)
	r, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	r.Body.Close()
	body := buf.String()
	for _, want := range []string{
		"buckwild_serve_requests_total 1",
		"buckwild_serve_promotions_total 1",
		"buckwild_serve_model_epoch 5",
		"buckwild_serve_latency_us_count 1",
		"buckwild_serve_batch_size_count 1",
		"buckwild_serve_draining 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	r, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	json.NewDecoder(r.Body).Decode(&h)
	r.Body.Close()
	if h["status"] != "no-model" || r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz before promote: %d %v", r.StatusCode, h)
	}
	s.Promote(newLin(2, 1), 7, 0.5)
	r, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h = nil
	json.NewDecoder(r.Body).Decode(&h)
	r.Body.Close()
	if h["status"] != "ok" || h["model_epoch"] != float64(7) || r.StatusCode != http.StatusOK {
		t.Fatalf("healthz after promote: %d %v", r.StatusCode, h)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range []Config{
		{MaxBatch: -1},
		{QueueDepth: -2},
		{BatchWait: -time.Second},
		{DrainTimeout: -time.Second},
	} {
		if _, err := New(tc); err == nil {
			t.Errorf("New(%+v) accepted", tc)
		} else if !strings.HasPrefix(err.Error(), "serve: ") {
			t.Errorf("New(%+v) error %q lacks serve: prefix", tc, err)
		}
	}
	var c Config
	if err := c.fill(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if c.Addr == "" || c.MaxBatch == 0 || c.QueueDepth == 0 || c.DrainTimeout == 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
}

func TestStartAddrAndDrain(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Promote(newLin(2, 2), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if s.httpSrv.ReadHeaderTimeout != obs.ReadHeaderTimeout || s.httpSrv.IdleTimeout != obs.IdleTimeout {
		t.Errorf("timeouts: read-header %v, idle %v", s.httpSrv.ReadHeaderTimeout, s.httpSrv.IdleTimeout)
	}
	code, pr := post(t, "http://"+s.Addr(), `{"x":[1,1]}`)
	if code != 200 || pr.Margin == nil || *pr.Margin != 4 {
		t.Fatalf("over real listener: code %d, resp %+v", code, pr)
	}
	if err := s.Drain(nil); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestSlowHeaderClientDisconnected dribbles half a request header at the
// real listener and never finishes it: the server must close that
// connection once obs.ReadHeaderTimeout passes (net/http sends a bare 400 with
// Connection: close on the way out), while a well-formed /predict sent in
// the meantime still answers 200.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	t.Parallel()
	s, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Promote(newLin(2, 2), 1, 0.5); err != nil {
		t.Fatal(err)
	}

	slow, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := slow.Write([]byte("POST /predict HTTP/1.1\r\nHost: x\r\nContent-Le")); err != nil {
		t.Fatal(err)
	}

	code, pr := post(t, "http://"+s.Addr(), `{"x":[1,1]}`)
	if code != 200 || pr.Margin == nil || *pr.Margin != 4 {
		t.Fatalf("well-formed request beside the slow client: code %d, resp %+v", code, pr)
	}

	if err := slow.SetReadDeadline(start.Add(obs.ReadHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(slow) // returns at the server's close, or at our deadline
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("slow client still connected %v after its first byte (read %q)", time.Since(start), reply)
	}
	if bytes.HasPrefix(reply, []byte("HTTP/1.1 200")) {
		t.Errorf("half a header was answered as a request: %q", reply)
	}
	if held := time.Since(start); held < obs.ReadHeaderTimeout-time.Second {
		t.Errorf("connection dropped after %v, before the %v header timeout", held, obs.ReadHeaderTimeout)
	}
}
