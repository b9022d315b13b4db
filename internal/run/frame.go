package run

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
)

// Model files and checkpoints share one frame:
//
//	magic[4] | version[1] | crc32[4] | payloadLen[8] | payload
//
// with big-endian integers and an IEEE CRC over the gob-encoded payload,
// so a torn or corrupted file is detected instead of decoded into
// garbage. Every magic begins with 0xBF, a byte that can never begin a
// gob stream, so a frame is never mistaken for a bare gob.
const (
	frameHeader     = 17
	maxFramePayload = 1 << 32
)

// EncodeFrame gob-encodes v and frames it under magic and version.
func EncodeFrame(magic [4]byte, version byte, v any) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(make([]byte, frameHeader))
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	copy(b[:4], magic[:])
	b[4] = version
	p := b[frameHeader:]
	binary.BigEndian.PutUint32(b[5:9], crc32.ChecksumIEEE(p))
	binary.BigEndian.PutUint64(b[9:17], uint64(len(p)))
	return b, nil
}

// DecodeFrame reads one frame from r, verifies its magic, version, length
// and CRC, and gob-decodes the payload into v. what names the file kind
// in the errors, which carry no package prefix: the caller adds its own.
func DecodeFrame(r io.Reader, magic [4]byte, version byte, what string, v any) error {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("truncated %s header", what)
	}
	if !bytes.Equal(hdr[:4], magic[:]) {
		return fmt.Errorf("not a %s file", what)
	}
	if hdr[4] != version {
		return fmt.Errorf("unsupported %s version %d (this build reads %d)", what, hdr[4], version)
	}
	sum := binary.BigEndian.Uint32(hdr[5:9])
	n := binary.BigEndian.Uint64(hdr[9:17])
	if n > maxFramePayload {
		return fmt.Errorf("implausible %s payload size %d", what, n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return fmt.Errorf("truncated %s payload", what)
	}
	if got := crc32.ChecksumIEEE(p); got != sum {
		return fmt.Errorf("%s CRC mismatch (stored %08x, computed %08x)", what, sum, got)
	}
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	return nil
}
