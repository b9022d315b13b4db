package buckwild

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"buckwild/internal/dataset"
	"buckwild/internal/fixed"
	"buckwild/internal/run"
)

// SavedModel is the on-disk representation of a trained model: the
// signature it was trained under and the dequantized weights.
type SavedModel struct {
	Signature string
	Weights   []float32
}

// Model files use the frame shared with checkpoints (see
// run.EncodeFrame) under their own magic. LoadModel tells a frame from a
// bare gob by its first magic byte, so files written before the frame
// existed (format v1) still load.
var mdlMagic = [4]byte{0xBF, 'B', 'K', 'M'}

const mdlVersion = 2

// SaveModel writes a trained model to w in the current (v2) framed
// format. sigText is validated by parsing (empty means "unspecified").
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
	frame, err := run.EncodeFrame(mdlMagic, mdlVersion, SavedModel{Signature: sigText, Weights: weights})
	if err != nil {
		return fmt.Errorf("buckwild: encoding model: %w", err)
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("buckwild: writing model: %w", err)
	}
	return nil
}

// LoadModel reads a model previously written by SaveModel: the framed v2
// format, or the bare-gob v1 format of earlier releases.
func LoadModel(r io.Reader) (*SavedModel, error) {
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("buckwild: model stream truncated")
	}
	// Put the sniffed bytes back: a frame is read from its magic on, a v1
	// stream is a bare gob.
	r = io.MultiReader(bytes.NewReader(head), r)
	var m SavedModel
	if bytes.Equal(head, mdlMagic[:]) {
		if err := run.DecodeFrame(r, mdlMagic, mdlVersion, "model", &m); err != nil {
			return nil, fmt.Errorf("buckwild: %w", err)
		}
	} else if err := gob.NewDecoder(r).Decode(&m); err != nil {
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
	sig, p, err := datasetSignature(sigText, true)
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
