package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// ReadHeaderTimeout bounds how long a connection may take to deliver one
// request's header block, so a client that dribbles a header cannot hold
// a connection (and its goroutine) forever. On a new connection the clock
// starts at accept; on a keep-alive connection it starts when the next
// request's first bytes arrive, so idle gaps do not count. No body
// timeout is set. Every HTTP server in the tree (the debug endpoint here
// and the serving daemon) reads it and IdleTimeout.
const ReadHeaderTimeout = 5 * time.Second

// IdleTimeout closes a keep-alive connection that has carried no request
// for this long, so idle clients cannot pin connections forever. It stays
// above net/http's client IdleConnTimeout (90 s): a Go client closes an
// idle connection first, so a request never races a server-side close.
const IdleTimeout = 2 * time.Minute

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

// ServeDebug starts an HTTP endpoint on addr serving the surface's
// routes (see Surface.Mount) and the standard pprof handlers at
// /debug/pprof/. It returns once the listener is bound; the server runs
// until Close.
func ServeDebug(addr string, s *Surface) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	s.Mount(mux)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &Server{Addr: ln.Addr().String(), srv: &http.Server{
		Handler: mux, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout,
	}}
	go srv.srv.Serve(ln)
	return srv, nil
}
