package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
	"buckwild/internal/prng"
)

// LIBSVM-format input, so real datasets (a9a, rcv1, news20, ...) can be fed
// to the engine in the format the sparse-learning community uses:
//
//	<label> <index>:<value> <index>:<value> ...
//
// with 1-based feature indices. Lines may carry a trailing '#' comment.

// LibSVMConfig controls how a parsed dataset is stored.
type LibSVMConfig struct {
	// P is the dataset precision the values are quantized to.
	P kernels.Prec
	// IdxBits is the stored index precision (8, 16 or 32).
	IdxBits uint
	// Rounding selects the one-time dataset quantization discipline.
	Rounding fixed.Rounding
	// NumFeatures forces the model dimension; zero infers it from the
	// largest index seen.
	NumFeatures int
	Seed        uint64
	// Path, when set, names the input in parse errors ("path:line: ...")
	// so a bad record in a multi-gigabyte file is locatable.
	Path string
}

// loc renders an error location, with the file name when known.
func (c *LibSVMConfig) loc(line int) string {
	if c.Path != "" {
		return fmt.Sprintf("%s:%d", c.Path, line)
	}
	return fmt.Sprintf("line %d", line)
}

// name identifies the whole input in stream-level errors.
func (c *LibSVMConfig) name() string {
	if c.Path != "" {
		return c.Path
	}
	return "input"
}

// ReadLibSVM parses a LIBSVM-format stream into a sparse dataset. Labels
// are mapped to +-1: values > 0 become +1 and everything else -1 (the
// binary convention; multiclass files should be pre-filtered).
func ReadLibSVM(r io.Reader, cfg LibSVMConfig) (*SparseSet, error) {
	switch cfg.IdxBits {
	case 0:
		cfg.IdxBits = 32
	case 8, 16, 32:
	default:
		return nil, fmt.Errorf("dataset: index precision must be 8, 16 or 32 bits")
	}
	rs := prng.NewXorshift32(uint32(cfg.Seed) | 1)

	d := &SparseSet{IdxBits: cfg.IdxBits}
	maxIdx := int32(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		label, err := strconv.ParseFloat(fields[0], 32)
		if err != nil {
			return nil, fmt.Errorf("dataset: %s: bad label %q", cfg.loc(lineNo), fields[0])
		}
		y := float32(-1)
		if label > 0 {
			y = 1
		}
		idx := make([]int32, 0, len(fields)-1)
		vals := make([]float32, 0, len(fields)-1)
		prev := int32(-1)
		for _, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon <= 0 {
				return nil, fmt.Errorf("dataset: %s: bad feature %q", cfg.loc(lineNo), f)
			}
			j, err := strconv.ParseInt(f[:colon], 10, 32)
			if err != nil || j < 1 {
				return nil, fmt.Errorf("dataset: %s: bad index %q", cfg.loc(lineNo), f[:colon])
			}
			v, err := strconv.ParseFloat(f[colon+1:], 32)
			if err != nil {
				return nil, fmt.Errorf("dataset: %s: bad value %q", cfg.loc(lineNo), f[colon+1:])
			}
			j0 := int32(j - 1) // to 0-based
			if j0 <= prev {
				return nil, fmt.Errorf("dataset: %s: indices must be strictly increasing", cfg.loc(lineNo))
			}
			prev = j0
			if j0 > maxIdx {
				maxIdx = j0
			}
			idx = append(idx, j0)
			vals = append(vals, float32(v))
		}
		if len(idx) == 0 {
			continue
		}
		d.Idx = append(d.Idx, idx)
		d.RawVal = append(d.RawVal, vals)
		d.Val = append(d.Val, quantizeRow(cfg.P, vals, cfg.Rounding, rs))
		d.Y = append(d.Y, y)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading %s: %w", cfg.name(), err)
	}
	if len(d.Idx) == 0 {
		return nil, fmt.Errorf("dataset: no examples in %s", cfg.name())
	}
	d.N = int(maxIdx) + 1
	if cfg.NumFeatures > 0 {
		if cfg.NumFeatures <= int(maxIdx) {
			return nil, fmt.Errorf("dataset: NumFeatures %d smaller than max index %d", cfg.NumFeatures, maxIdx+1)
		}
		d.N = cfg.NumFeatures
	}
	return d, nil
}

// WriteLibSVM writes a sparse dataset in LIBSVM format (1-based indices,
// raw full-precision values). Each line is the label as "%+g" and each
// feature as " %d:%g" would print them, appended through strconv into one
// reused buffer rather than formatted by fmt call by call.
func WriteLibSVM(w io.Writer, d *SparseSet) error {
	if d == nil || d.Len() == 0 {
		return fmt.Errorf("dataset: nothing to write")
	}
	bw := bufio.NewWriter(w)
	var line []byte
	for i := 0; i < d.Len(); i++ {
		line = appendSignedFloat(line[:0], d.Y[i])
		for k, j := range d.Idx[i] {
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(j+1), 10)
			line = append(line, ':')
			line = strconv.AppendFloat(line, float64(d.RawVal[i][k]), 'g', -1, 32)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendSignedFloat appends x as fmt's "%+g" prints a float32: the
// shortest round-tripping form, with a '+' on anything strconv leaves
// unsigned (NaN included, as fmt does).
func appendSignedFloat(dst []byte, x float32) []byte {
	n := len(dst)
	dst = strconv.AppendFloat(dst, float64(x), 'g', -1, 32)
	if dst[n] != '-' && dst[n] != '+' {
		dst = append(dst[:n+1], dst[n:]...)
		dst[n] = '+'
	}
	return dst
}
