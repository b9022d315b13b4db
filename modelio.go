package buckwild

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"buckwild/internal/dataset"
	"buckwild/internal/fixed"
)

// SavedModel is the on-disk representation of a trained model: the
// signature it was trained under and the dequantized weights.
type SavedModel struct {
	Signature string
	Weights   []float32
}

// Model files are framed as
//
//	magic[4] | version[1] | crc32[4] | payloadLen[8] | payload
//
// with big-endian integers and an IEEE CRC over the gob-encoded payload,
// so a torn or corrupted file is detected instead of decoded into
// garbage weights. The first magic byte 0xBF can never begin a gob
// stream, which is how LoadModel tells a v2 frame from a bare v1 gob:
// files written before the frame existed (format v1) still load.
var mdlMagic = [4]byte{0xBF, 'B', 'K', 'M'}

const mdlVersion = 2

// SaveModelSignature writes a trained model to w in the current (v2)
// framed format under a typed signature.
func SaveModelSignature(w io.Writer, sig Signature, weights []float32) error {
	return saveModel(w, sig.String(), weights)
}

// SaveModel writes a trained model to w. It is the compatibility
// wrapper over SaveModelSignature for callers holding the signature as
// text: sigText is validated by parsing (empty means "unspecified").
func SaveModel(w io.Writer, sigText string, weights []float32) error {
	if sigText != "" {
		if _, err := ParseSignature(sigText); err != nil {
			return wrapErr(err)
		}
	}
	return saveModel(w, sigText, weights)
}

func saveModel(w io.Writer, sigText string, weights []float32) error {
	if len(weights) == 0 {
		return fmt.Errorf("buckwild: refusing to save an empty model")
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(SavedModel{Signature: sigText, Weights: weights}); err != nil {
		return fmt.Errorf("buckwild: encoding model: %w", err)
	}
	p := payload.Bytes()
	var hdr [17]byte
	copy(hdr[:4], mdlMagic[:])
	hdr[4] = mdlVersion
	binary.BigEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(p))
	binary.BigEndian.PutUint64(hdr[9:17], uint64(len(p)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("buckwild: writing model: %w", err)
	}
	if _, err := w.Write(p); err != nil {
		return fmt.Errorf("buckwild: writing model: %w", err)
	}
	return nil
}

// LoadModel reads a model previously written by SaveModel or
// SaveModelSignature: the framed v2 format, or the bare-gob v1 format
// of earlier releases.
func LoadModel(r io.Reader) (*SavedModel, error) {
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("buckwild: model stream truncated")
	}
	if bytes.Equal(head, mdlMagic[:]) {
		return loadModelV2(r)
	}
	// v1: the stream is a bare gob; put the sniffed bytes back.
	return loadModelGob(io.MultiReader(bytes.NewReader(head), r))
}

func loadModelV2(r io.Reader) (*SavedModel, error) {
	var hdr [13]byte // version + crc + length
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("buckwild: model header truncated")
	}
	if hdr[0] != mdlVersion {
		return nil, fmt.Errorf("buckwild: unsupported model format version %d (this build reads up to %d)", hdr[0], mdlVersion)
	}
	sum := binary.BigEndian.Uint32(hdr[1:5])
	n := binary.BigEndian.Uint64(hdr[5:13])
	const maxPayload = 1 << 32
	if n > maxPayload {
		return nil, fmt.Errorf("buckwild: implausible model payload size %d", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, fmt.Errorf("buckwild: model payload truncated")
	}
	if got := crc32.ChecksumIEEE(p); got != sum {
		return nil, fmt.Errorf("buckwild: model CRC mismatch (stored %08x, computed %08x)", sum, got)
	}
	return loadModelGob(bytes.NewReader(p))
}

func loadModelGob(r io.Reader) (*SavedModel, error) {
	var m SavedModel
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("buckwild: decoding model: %w", err)
	}
	if len(m.Weights) == 0 {
		return nil, fmt.Errorf("buckwild: model has no weights")
	}
	if m.Signature != "" {
		if _, err := ParseSignature(m.Signature); err != nil {
			return nil, wrapErr(err)
		}
	}
	return &m, nil
}

// SaveModelFile and LoadModelFile are path-based conveniences.
func SaveModelFile(path, sigText string, weights []float32) error {
	f, err := os.Create(path)
	if err != nil {
		return wrapErr(err)
	}
	defer f.Close()
	if err := SaveModel(f, sigText, weights); err != nil {
		return err
	}
	return wrapErr(f.Close())
}

// LoadModelFile loads a model from a file written by SaveModelFile.
func LoadModelFile(path string) (*SavedModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, wrapErr(err)
	}
	defer f.Close()
	m, err := LoadModel(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return m, nil
}

// LoadLibSVM reads a LIBSVM-format file into a sparse dataset stored at the
// signature's dataset and index precisions, ready for Train. Parse
// errors name the file and line.
func LoadLibSVM(path, sigText string) (*SparseDataset, error) {
	sig, err := ParseSignature(orDefault(sigText, "D32fi32M32f"))
	if err != nil {
		return nil, wrapErr(err)
	}
	if !sig.Sparse() {
		return nil, fmt.Errorf("buckwild: signature %v has no index term", sig)
	}
	p, err := precOf(sig.DatasetBits(), sig.D.Float || !sig.D.Present)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, wrapErr(err)
	}
	defer f.Close()
	ds, err := dataset.ReadLibSVM(f, dataset.LibSVMConfig{
		P:        p,
		IdxBits:  sig.IndexBits(),
		Rounding: fixed.Unbiased,
		Seed:     1,
		Path:     path,
	})
	return ds, wrapErr(err)
}

// Handle returns the immutable predict handle for a loaded model, the
// type every inference path shares (Model.Predict* for request serving,
// ModelServer.Promote for hot promotion). Unlike the SavedModel it came
// from, a Model cannot be mutated after construction, so the handle is
// safe for any number of concurrent predict calls.
func (m *SavedModel) Handle() (*Model, error) {
	return NewModel(m.Signature, m.Weights)
}
