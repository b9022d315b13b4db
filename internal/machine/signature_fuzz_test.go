package machine

import (
	"regexp"
	"testing"

	"buckwild/internal/dmgc"
	"buckwild/internal/kernels"
)

// errPrefix is the "pkg: " prefix every internal error carries.
var errPrefix = regexp.MustCompile(`^[a-z]+: `)

// FuzzParseSignature: any text dmgc.Parse accepts renders through String
// and parses back to the same signature, and lowering it (its D, M and C
// terms through kernels.TermPrec, the whole through SignatureWorkload)
// yields a precision, a workload the simulator accepts, or an error with
// a package prefix; never a panic. The committed corpus
// (testdata/fuzz/FuzzParseSignature) holds every Table 1 and Table 2
// signature and a few malformed ones.
func FuzzParseSignature(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		prefixed := func(what string, err error) {
			if !errPrefix.MatchString(err.Error()) {
				t.Fatalf("%s(%q) error has no package prefix: %v", what, in, err)
			}
		}
		sig, err := dmgc.Parse(in)
		if err != nil {
			prefixed("Parse", err)
			return
		}
		// The all-absent signature renders as "(full precision)", which
		// names it rather than spelling it.
		if sig != (dmgc.Signature{}) {
			back, err := dmgc.Parse(sig.String())
			if err != nil || back != sig {
				t.Fatalf("%q renders as %q, which parses to %+v, %v; want %+v", in, sig.String(), back, err, sig)
			}
		}
		for _, term := range []dmgc.Term{sig.D, sig.M, sig.C} {
			if _, err := kernels.TermPrec(term); err != nil {
				prefixed("TermPrec", err)
			}
		}
		w, err := SignatureWorkload(sig, 1024, 2)
		if err != nil {
			prefixed("SignatureWorkload", err)
			return
		}
		if w.Sparse != sig.Sparse() || w.IdxBits != sig.IndexBits() {
			t.Fatalf("%q: workload sparse=%v i%d, signature sparse=%v i%d", in, w.Sparse, w.IdxBits, sig.Sparse(), sig.IndexBits())
		}
		if err := validate(Xeon(), w); err != nil {
			t.Fatalf("%q: the simulator refuses its workload: %v", in, err)
		}
	})
}
