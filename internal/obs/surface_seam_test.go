package obs

import (
	"net/http"
	"testing"
)

// pinMux mounts one Surface over sn, with a bundler, the way both
// commands do.
func pinMux(t *testing.T, sn pinSensors) http.Handler {
	t.Helper()
	sf := &Surface{
		Flight: sn.flight, Tracer: sn.tracer, Series: sn.series, Live: sn.live,
		Cluster: sn.cluster, Serve: sn.serve, Flags: sn.flags,
	}
	b, err := NewBundler(BundleConfig{Dir: t.TempDir()}, sf)
	if err != nil {
		t.Fatal(err)
	}
	sf.Bundle = b
	mux := http.NewServeMux()
	sf.Mount(mux)
	return mux
}
