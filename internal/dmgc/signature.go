// Package dmgc implements the DMGC model of Section 3: a taxonomy of
// low-precision SGD implementations by the precision of their Dataset,
// Model, Gradient and Communication numbers, together with the Section 4
// performance model that predicts throughput from a signature, a model
// size, and a thread count.
package dmgc

import (
	"fmt"
	"strconv"
	"strings"
)

// Term is one precision component of a signature: a bit width plus whether
// the numbers are floating point. A Term may be absent, which per the
// paper's simplification rules means the component is (equivalent to) full
// precision and is omitted from the rendered signature.
type Term struct {
	Present bool
	Bits    uint
	Float   bool
}

// FixedTerm returns a fixed-point term of the given width.
func FixedTerm(bits uint) Term { return Term{Present: true, Bits: bits} }

// String renders the term's width suffix ("8", "32f", ...).
func (t Term) String() string {
	if !t.Present {
		return ""
	}
	s := strconv.FormatUint(uint64(t.Bits), 10)
	if t.Float {
		s += "f"
	}
	return s
}

// Signature is a full DMGC signature (Section 3, "DMGC signatures"),
// including the augmentation rules: float suffixes, the sparse index term,
// and the synchronous-communication subscript.
type Signature struct {
	// D is the dataset precision; absent means full-precision dataset.
	D Term
	// Idx is the sparse index precision; present iff the problem is
	// sparse.
	Idx Term
	// M is the model precision; absent means full-precision model.
	M Term
	// G is the gradient (intermediate) precision; absent means the
	// gradient computation is equivalent to full precision.
	G Term
	// C is the communication precision; absent means communication is
	// implicit through the cache hierarchy (Hogwild!-style).
	C Term
	// CSync marks explicit synchronous communication (the "s"
	// subscript); meaningful only when C is present.
	CSync bool
}

// Sparse reports whether the signature describes a sparse problem.
func (s Signature) Sparse() bool { return s.Idx.Present }

// String renders the signature in the paper's notation, e.g. "D8M8",
// "D32fi32M32f", "G10", "D8M16G32C32", "C1s".
func (s Signature) String() string {
	var b strings.Builder
	if s.D.Present {
		b.WriteString("D")
		b.WriteString(s.D.String())
	}
	if s.Idx.Present {
		b.WriteString("i")
		b.WriteString(s.Idx.String())
	}
	if s.M.Present {
		b.WriteString("M")
		b.WriteString(s.M.String())
	}
	if s.G.Present {
		b.WriteString("G")
		b.WriteString(s.G.String())
	}
	if s.C.Present {
		b.WriteString("C")
		b.WriteString(s.C.String())
		if s.CSync {
			b.WriteString("s")
		}
	}
	if b.Len() == 0 {
		return "(full precision)"
	}
	return b.String()
}

// Parse parses a signature in the paper's notation. Component letters are
// case-sensitive except that a lowercase "i" introduces the index term.
// Examples: "D8M8", "D32fi32M32f", "G18", "D8M16G32C32", "C1s".
func Parse(in string) (Signature, error) {
	var sig Signature
	s := in
	pos := 0
	readTerm := func() (Term, error) {
		start := pos
		for pos < len(s) && s[pos] >= '0' && s[pos] <= '9' {
			pos++
		}
		if pos == start {
			return Term{}, fmt.Errorf("dmgc: %q: expected bit width at offset %d", in, start)
		}
		bits, err := strconv.ParseUint(s[start:pos], 10, 8)
		if err != nil || bits == 0 || bits > 64 {
			return Term{}, fmt.Errorf("dmgc: %q: bad bit width %q", in, s[start:pos])
		}
		t := Term{Present: true, Bits: uint(bits)}
		if pos < len(s) && s[pos] == 'f' {
			t.Float = true
			pos++
		}
		return t, nil
	}
	seen := map[byte]bool{}
	for pos < len(s) {
		c := s[pos]
		pos++
		if seen[c] {
			return Signature{}, fmt.Errorf("dmgc: %q: duplicate component %q", in, string(c))
		}
		seen[c] = true
		t, err := readTerm()
		if err != nil {
			return Signature{}, err
		}
		switch c {
		case 'D':
			sig.D = t
		case 'i':
			sig.Idx = t
		case 'M':
			sig.M = t
		case 'G':
			sig.G = t
		case 'C':
			sig.C = t
			if pos < len(s) && s[pos] == 's' {
				sig.CSync = true
				pos++
			}
		default:
			return Signature{}, fmt.Errorf("dmgc: %q: unknown component %q", in, string(c))
		}
	}
	if sig.Idx.Present && !sig.D.Present {
		return Signature{}, fmt.Errorf("dmgc: %q: index precision requires a dataset term", in)
	}
	return sig, nil
}

// MustParse is Parse that panics on error, for registries and tests.
func MustParse(s string) Signature {
	sig, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return sig
}

// DatasetBits returns the effective dataset width in bits (32 if absent).
func (s Signature) DatasetBits() uint {
	if s.D.Present {
		return s.D.Bits
	}
	return 32
}

// ModelBits returns the effective model width in bits (32 if absent).
func (s Signature) ModelBits() uint {
	if s.M.Present {
		return s.M.Bits
	}
	return 32
}

// IndexBits returns the index width in bits (32 if absent or dense).
func (s Signature) IndexBits() uint {
	if s.Idx.Present {
		return s.Idx.Bits
	}
	return 32
}

// BytesPerElement returns the DRAM bytes consumed per processed dataset
// number: the dataset element itself plus, for sparse problems, its stored
// index. This is the quantity that determines the bandwidth bound.
func (s Signature) BytesPerElement() float64 {
	b := float64(s.DatasetBits()) / 8
	if s.Sparse() {
		b += float64(s.IndexBits()) / 8
	}
	return b
}
