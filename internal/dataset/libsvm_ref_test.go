package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"buckwild/internal/prng"
)

// refReadLibSVM is the line-at-a-time LIBSVM reader ReadLibSVM replaced: a
// bufio.Scanner with a 16 MiB line limit, strings.Fields and
// strconv.ParseFloat on every field. It is the differential oracle the
// block reader must match set for set, bit for bit, and error for error.
func refReadLibSVM(r io.Reader, cfg LibSVMConfig) (*SparseSet, error) {
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
	return d, nil
}
