package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"unsafe"

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
//
// The reader and the writer work in blocks of whole lines on up to
// GOMAXPROCS goroutines, with a bounded number of blocks in flight; the
// set read, the bytes written and every error are the same whatever the
// number of goroutines (DESIGN.md §4b).

// LibSVMConfig controls how a parsed dataset is stored.
type LibSVMConfig struct {
	// P is the dataset precision the values are quantized to.
	P kernels.Prec
	// IdxBits is the stored index precision (8, 16 or 32).
	IdxBits uint
	// Rounding selects the one-time dataset quantization discipline.
	Rounding fixed.Rounding
	Seed     uint64
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

const (
	// libsvmBlockSize is the bytes the reader reads, and about the bytes
	// the writer formats, per block.
	libsvmBlockSize = 4 << 20
	// maxLineBytes is the shortest line (not counting its '\n') the reader
	// refuses, with bufio.ErrTooLong: a bufio.Scanner's limit with a 16 MiB
	// buffer, so that a file fails where it always has.
	maxLineBytes = 1 << 24
)

// ReadLibSVM parses a LIBSVM-format stream into a sparse dataset. Labels
// are mapped to +-1: values > 0 become +1 and everything else -1 (the
// binary convention; multiclass files should be pre-filtered). Each row's
// Idx and RawVal are capacity-capped views into per-block arenas: never
// append to one.
func ReadLibSVM(r io.Reader, cfg LibSVMConfig) (*SparseSet, error) {
	return readLibSVM(r, cfg, libsvmBlockSize, runtime.GOMAXPROCS(0))
}

// readLibSVM is ReadLibSVM in blocks of blockSize bytes on up to workers
// goroutines. Blocks are parsed in any order and merged in file order, and
// the one quantization stream is drawn in the merge, so nothing depends on
// blockSize or workers.
func readLibSVM(r io.Reader, cfg LibSVMConfig, blockSize, workers int) (*SparseSet, error) {
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
	// Two blocks in flight per worker let the merge lag a block behind
	// without idling a worker; free has room for every one's buffer.
	inflight := 2 * workers
	br := &blockReader{r: r, size: blockSize, free: make(chan []byte, inflight)}
	lines := 0 // in the blocks merged so far
	var err error
	ordered(workers, inflight, br.next, func(b *block) *block {
		b.parse()
		br.recycle(b.data)
		b.data = nil
		return b
	}, func(b *block) bool {
		switch {
		case b.tooLong:
			err = fmt.Errorf("dataset: reading %s: %w", cfg.name(), bufio.ErrTooLong)
			return false
		case b.errMsg != "":
			err = fmt.Errorf("dataset: %s: %s", cfg.loc(lines+b.errLine), b.errMsg)
			return false
		}
		start := 0
		for _, end := range b.ends {
			vals := b.val[start:end:end]
			d.Idx = append(d.Idx, b.idx[start:end:end])
			d.RawVal = append(d.RawVal, vals)
			d.Val = append(d.Val, quantizeRow(cfg.P, vals, cfg.Rounding, rs))
			start = end
		}
		d.Y = append(d.Y, b.y...)
		maxIdx = max(maxIdx, b.maxIdx)
		lines += b.lines
		if b.readErr != nil {
			err = fmt.Errorf("dataset: reading %s: %w", cfg.name(), b.readErr)
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(d.Idx) == 0 {
		return nil, fmt.Errorf("dataset: no examples in %s", cfg.name())
	}
	d.N = int(maxIdx) + 1
	return d, nil
}

// A block is a run of whole lines of the input and, once parsed, what they
// hold.
type block struct {
	// data is the lines, each ending in '\n' except, at the end of the
	// input, a last line without one.
	data []byte
	// readErr is the error that ended the input, if not io.EOF.
	readErr error

	lines int // lines parsed
	// y holds the labels of the rows with at least one feature; row r's
	// features are idx and val from ends[r-1] (0 for the first) to ends[r].
	y      []float32
	ends   []int
	idx    []int32 // 0-based
	val    []float32
	maxIdx int32
	// The first error: a line of maxLineBytes or more, or a bad line,
	// errLine (1-based within the block) with the error text that follows
	// its location.
	tooLong bool
	errLine int
	errMsg  string
}

// blockReader cuts the input into blocks: about size bytes, cut after the
// last '\n', the rest carried into the next block.
type blockReader struct {
	r     io.Reader
	size  int
	carry []byte
	done  bool
	free  chan []byte // parsed blocks' buffers, for reuse
}

// next reads the next block; it is not safe for concurrent use.
func (br *blockReader) next() (*block, bool) {
	if br.done {
		return nil, false
	}
	var buf []byte
	select {
	case buf = <-br.free:
	default:
		buf = make([]byte, 0, br.size)
	}
	buf = append(buf, br.carry...)
	b := &block{}
	for scanned := 0; ; { // buf[:scanned] holds no '\n'
		// A block is size bytes, unless one line is longer: then each
		// read doubles it, so a long line costs linear time.
		n := max(br.size-len(buf), len(buf))
		buf = slices.Grow(buf, n)
		m, err := fill(br.r, buf[len(buf):len(buf)+n])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err != io.EOF {
				b.readErr = err
			}
			br.done, b.data = true, buf
			return b, true
		}
		if i := bytes.LastIndexByte(buf[scanned:], '\n'); i >= 0 {
			cut := scanned + i + 1
			br.carry = append(br.carry[:0], buf[cut:]...)
			b.data = buf[:cut]
			return b, true
		}
		scanned = len(buf)
		if len(buf) >= maxLineBytes { // one line already too long: parse reports it
			br.done, b.data = true, buf
			return b, true
		}
	}
}

// recycle keeps a parsed block's buffer for a later block.
func (br *blockReader) recycle(buf []byte) {
	if cap(buf) == br.size {
		select {
		case br.free <- buf[:0]:
		default:
		}
	}
}

// fill reads into p until it is full, the reader fails or it makes no
// progress, with bufio.Scanner's rules for bad counts and empty reads.
func fill(r io.Reader, p []byte) (int, error) {
	n, empties := 0, 0
	for n < len(p) {
		m, err := r.Read(p[n:])
		if m < 0 || m > len(p)-n {
			return n, bufio.ErrBadReadCount
		}
		n += m
		if err != nil {
			return n, err
		}
		if m > 0 {
			empties = 0
		} else if empties++; empties > 100 {
			return n, io.ErrNoProgress
		}
	}
	return n, nil
}

// parse parses the block's lines up to the first error.
func (b *block) parse() {
	nf := bytes.Count(b.data, []byte{':'}) // at least the features
	nl := bytes.Count(b.data, []byte{'\n'}) + 1
	b.idx, b.val = make([]int32, 0, nf), make([]float32, 0, nf)
	b.y, b.ends = make([]float32, 0, nl), make([]int, 0, nl)
	b.maxIdx = -1
	for data := b.data; len(data) > 0; {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		b.lines++
		if len(line) >= maxLineBytes {
			b.tooLong, b.errLine = true, b.lines
			return
		}
		if msg := b.parseLine(line); msg != "" {
			b.errLine, b.errMsg = b.lines, msg
			return
		}
	}
}

// parseLine parses one line (without its '\n'), appending its row if it
// has features, and returns the text of its first error, or "".
func (b *block) parseLine(line []byte) string {
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	start := len(b.idx)
	msg, ascii := b.parseFields(line, false)
	if !ascii {
		// A byte >= 0x80 may start a Unicode space (U+0085, U+00A0):
		// split as strings.Fields does, then parse the fields rejoined
		// by ASCII spaces.
		b.idx, b.val = b.idx[:start], b.val[:start]
		joined := strings.Join(strings.Fields(string(line)), " ")
		msg, _ = b.parseFields([]byte(joined), true)
	}
	return msg
}

// parseFields parses the fields of one line. Unless highOK, it gives up
// (ascii false) at a field holding a byte >= 0x80, before reporting any
// error in that field or after it; the fields before it split the same way
// under strings.Fields.
func (b *block) parseFields(s []byte, highOK bool) (msg string, ascii bool) {
	tok, s, ok := nextField(s, highOK)
	if !ok {
		return "", false
	}
	if len(tok) == 0 {
		return "", true
	}
	label, ok := parseFloat32(tok)
	if !ok {
		return fmt.Sprintf("bad label %q", tok), true
	}
	start := len(b.idx)
	prev := int32(-1)
	for {
		i := 0
		for i < len(s) && byteClass[s[i]] == classSpace {
			i++
		}
		if s = s[i:]; len(s) == 0 {
			break
		}
		j, v, n := fastFeature(s)
		if n > 0 {
			s = s[n:]
		} else {
			if tok, s, ok = nextField(s, highOK); !ok {
				return "", false
			}
			colon := bytes.IndexByte(tok, ':')
			if colon <= 0 {
				return fmt.Sprintf("bad feature %q", tok), true
			}
			var err error
			if j, err = strconv.ParseInt(unsafeString(tok[:colon]), 10, 32); err != nil || j < 1 {
				return fmt.Sprintf("bad index %q", tok[:colon]), true
			}
			if v, ok = parseFloat32(tok[colon+1:]); !ok {
				return fmt.Sprintf("bad value %q", tok[colon+1:]), true
			}
		}
		j0 := int32(j - 1) // to 0-based
		if j0 <= prev {
			return "indices must be strictly increasing", true
		}
		prev = j0
		b.idx = append(b.idx, j0)
		b.val = append(b.val, v)
	}
	if len(b.idx) == start {
		return "", true
	}
	y := float32(-1)
	if label > 0 {
		y = 1
	}
	b.y = append(b.y, y)
	b.ends = append(b.ends, len(b.idx))
	b.maxIdx = max(b.maxIdx, prev) // indices ascend
	return "", true
}

// Byte classes for nextField: strings.Fields' ASCII spaces, and the bytes
// that may begin a multi-byte rune.
const (
	classText = iota
	classSpace
	classHigh
)

var byteClass = func() (c [256]uint8) {
	for _, s := range "\t\n\v\f\r " {
		c[s] = classSpace
	}
	for i := 0x80; i < 0x100; i++ {
		c[i] = classHigh
	}
	return c
}()

// nextField splits the first field off s, as strings.Fields would on ASCII
// text; tok is empty when s holds no more fields. Unless highOK, ok is false
// when the field holds a byte >= 0x80.
func nextField(s []byte, highOK bool) (tok, rest []byte, ok bool) {
	i := 0
	for i < len(s) && byteClass[s[i]] == classSpace {
		i++
	}
	j := i
	for ; j < len(s); j++ {
		c := byteClass[s[j]]
		if c == classSpace {
			break
		}
		if c == classHigh && !highOK {
			return nil, nil, false
		}
	}
	return s[i:j], s[j:], true
}

// fastFeature parses the field "index:value" at the start of s when its
// index is 1 to 9 digits and at least 1, and its value is on fastFloat32's
// path and ends at an ASCII space or the end of s; n is the field's length,
// or 0 when the field needs the general path.
func fastFeature(s []byte) (j int64, v float32, n int) {
	k := 0
	for ; k < len(s) && k < 9 && '0' <= s[k] && s[k] <= '9'; k++ {
		j = j*10 + int64(s[k]-'0')
	}
	if k == 0 || k == len(s) || s[k] != ':' || j < 1 {
		return 0, 0, 0
	}
	v, m, ok := fastFloat32(s[k+1:])
	n = k + 1 + m
	if !ok || n < len(s) && byteClass[s[n]] != classSpace {
		return 0, 0, 0
	}
	return j, v, n
}

// parseFloat32 is strconv.ParseFloat(s, 32) as a float32; ok is false when
// strconv reports an error.
func parseFloat32(s []byte) (float32, bool) {
	if f, n, ok := fastFloat32(s); ok && n == len(s) {
		return f, true
	}
	v, err := strconv.ParseFloat(unsafeString(s), 32)
	return float32(v), err == nil
}

// pow10 holds the powers of ten that float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// fastFloat32 parses the decimal [+-]digits[.digits][(e|E)[+-]digits] at the
// start of s, n bytes long, when its digits, read as an integer, are at
// most 2^53 and its decimal exponent is within ±22, to the float32
// strconv.ParseFloat returns for it with bitSize 32; ok is false for
// anything else. Both the mantissa and the power of ten are then
// exact float64s, so one multiply or divide gives the correctly rounded
// float64 of the decimal (Clinger's fast path). Narrowing that to float32
// rounds the decimal correctly, unless the float64 lies exactly on a
// midpoint between two float32s (its low 29 mantissa bits are 1<<28): only
// there can the second rounding differ, and those are left to strconv. The
// results lie within [1e-22, 2^53·1e22], far inside float32's normal range.
func fastFloat32(s []byte) (f32 float32, n int, ok bool) {
	i, neg := 0, false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		i, neg = 1, s[0] == '-'
	}
	var mant uint64
	digits, e10 := 0, 0
	start := i
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		mant = mant*10 + uint64(s[i]-'0')
		digits++
	}
	if i == start {
		return 0, 0, false
	}
	if i < len(s) && s[i] == '.' {
		i++
		start = i
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			mant = mant*10 + uint64(s[i]-'0')
			digits++
		}
		if i == start {
			return 0, 0, false
		}
		e10 = start - i
	}
	if digits > 19 || mant > 1<<53 { // 19 digits cannot wrap a uint64
		return 0, 0, false
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg = s[i] == '-'
			i++
		}
		exp := 0
		start = i
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			if exp < 1000 {
				exp = exp*10 + int(s[i]-'0')
			}
		}
		if i == start {
			return 0, 0, false
		}
		if eneg {
			exp = -exp
		}
		e10 += exp
	}
	if e10 < -22 || e10 > 22 {
		return 0, 0, false
	}
	f := float64(mant)
	if e10 >= 0 {
		f *= pow10[e10]
	} else {
		f /= pow10[-e10]
	}
	if math.Float64bits(f)&(1<<29-1) == 1<<28 {
		return 0, 0, false
	}
	if neg {
		f = -f
	}
	return float32(f), i, true
}

// unsafeString views b as a string without copying, for strconv calls that
// do not keep their argument.
func unsafeString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// WriteLibSVM writes a sparse dataset in LIBSVM format (1-based indices,
// raw full-precision values). Each line is the label as "%+g" and each
// feature as " %d:%g" would print them, appended through strconv. Blocks of
// rows are formatted on up to GOMAXPROCS goroutines and written in order.
func WriteLibSVM(w io.Writer, d *SparseSet) error {
	return writeLibSVM(w, d, libsvmBlockSize, runtime.GOMAXPROCS(0))
}

// writeLibSVM is WriteLibSVM in blocks of about blockSize bytes on up to
// workers goroutines.
func writeLibSVM(w io.Writer, d *SparseSet, blockSize, workers int) error {
	if d == nil || d.Len() == 0 {
		return fmt.Errorf("dataset: nothing to write")
	}
	// A block takes rows until they hold about blockSize bytes, reckoning
	// 16 per feature and per label; its buffer starts half as large again.
	type rows struct{ lo, hi, size int }
	row := 0
	next := func() (rows, bool) {
		r := rows{lo: row}
		for ; row < d.Len() && r.size < blockSize; row++ {
			r.size += 16 * (len(d.Idx[row]) + 1)
		}
		r.hi = row
		return r, r.hi > r.lo
	}
	inflight := 2 * workers // as in readLibSVM
	free := make(chan []byte, inflight)
	var err error
	ordered(workers, inflight, next, func(r rows) []byte {
		var buf []byte
		select {
		case buf = <-free:
		default:
		}
		if cap(buf) < r.size*3/2 {
			buf = make([]byte, 0, r.size*3/2)
		}
		return appendRows(buf[:0], d, r.lo, r.hi)
	}, func(buf []byte) bool {
		var n int
		if n, err = w.Write(buf); err == nil && n < len(buf) {
			err = io.ErrShortWrite
		}
		select {
		case free <- buf:
		default:
		}
		return err == nil
	})
	return err
}

// appendRows appends rows [lo, hi) of d to dst in LIBSVM format.
func appendRows(dst []byte, d *SparseSet, lo, hi int) []byte {
	for i := lo; i < hi; i++ {
		dst = appendSignedFloat(dst, d.Y[i])
		vals := d.RawVal[i]
		for k, j := range d.Idx[i] {
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(j+1), 10)
			dst = append(dst, ':')
			dst = strconv.AppendFloat(dst, float64(vals[k]), 'g', -1, 32)
		}
		dst = append(dst, '\n')
	}
	return dst
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
