package buckwild

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"
)

func TestModelFormatV2Frame(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, "D8M8", []float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if !bytes.Equal(b[:4], mdlMagic[:]) || b[4] != mdlVersion {
		t.Fatalf("frame header % x", b[:5])
	}
	m, err := LoadModel(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if m.Signature != "D8M8" || len(m.Weights) != 3 {
		t.Fatalf("loaded %+v", m)
	}
}

func TestLoadModelReadsV1(t *testing.T) {
	// A v1 file is a bare gob of SavedModel, as written before the frame
	// existed.
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(SavedModel{Signature: "D16M16", Weights: []float32{0.5, -0.5}}); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatalf("v1 stream rejected: %v", err)
	}
	if m.Signature != "D16M16" || len(m.Weights) != 2 || m.Weights[0] != 0.5 {
		t.Fatalf("v1 loaded wrong: %+v", m)
	}
}

func TestLoadModelDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, "", []float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-1] ^= 0xFF // flip a payload byte; the stored CRC no longer matches
	if _, err := LoadModel(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted model loaded: %v", err)
	}
}

func TestLoadModelTruncatedAndBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, "", []float32{1}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, cut := range []int{2, 10, len(b) - 3} {
		if _, err := LoadModel(bytes.NewReader(b[:cut])); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("truncation at %d: %v", cut, err)
		}
	}
	bad := append([]byte(nil), b...)
	bad[4] = 99
	if _, err := LoadModel(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("future version: %v", err)
	}
}

// TestSaveModelSignatureTyped round-trips a parsed signature's canonical
// text through the model file.
func TestSaveModelSignatureTyped(t *testing.T) {
	sig, err := ParseSignature("D8i16M8")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, sig.String(), []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Signature != sig.String() {
		t.Fatalf("signature %q, want %q", m.Signature, sig.String())
	}
}

func TestLoadModelFileNamesPath(t *testing.T) {
	path := t.TempDir() + "/broken.bkm"
	if err := osWriteFile(path, "definitely not a model"); err != nil {
		t.Fatal(err)
	}
	_, err := LoadModelFile(path)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("error should name %s: %v", path, err)
	}
	if !strings.HasPrefix(err.Error(), "buckwild:") {
		t.Fatalf("error lacks facade prefix: %v", err)
	}
}

// TestModelFramePinned pins the exact bytes SaveModel writes for fixed
// inputs: the v2 frame and its gob payload.
func TestModelFramePinned(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, "D8M8", []float32{0.5, -0.25, 1.5, 0}); err != nil {
		t.Fatal(err)
	}
	const want = "82270b4f830e07beee48229ea4817ceea6545a3e453d6b5345f4bc5a8858fdb3"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("model digest %s, want %s", got, want)
	}
}
