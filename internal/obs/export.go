package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
)

// WriteJSON marshals v with indentation and writes it to path, creating
// or truncating the file. It is the shared exporter behind the commands'
// -report flags.
func WriteJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Server is a running observability endpoint.
type Server struct {
	// Addr is the address the listener is bound to (useful with ":0").
	Addr string
	srv  *http.Server
}

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// ServeDebug starts an HTTP endpoint on addr serving metrics (typically a
// *LiveMetrics) at /metrics, every route in extra, and the standard pprof
// handlers at /debug/pprof/. The training command uses it to expose
// /debug/flight, /debug/dash and /debug/bundle on the same mux. Nil
// handlers, metrics included, are skipped. It returns once the listener
// is bound; the server runs until Close.
func ServeDebug(addr string, metrics http.Handler, extra map[string]http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	if metrics != nil {
		mux.Handle("/metrics", metrics)
	}
	for pattern, h := range extra {
		if h != nil {
			mux.Handle(pattern, h)
		}
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{Addr: ln.Addr().String(), srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}
