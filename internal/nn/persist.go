package nn

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// netWire is the serialized form of a Network.
type netWire struct {
	Sizes  []int
	Acts   []Act // per layer
	Params []float64
}

// Save writes the network to w in gob format.
func (n *Network) Save(w io.Writer) error {
	acts := make([]Act, len(n.layers))
	for i, ll := range n.layers {
		acts[i] = ll.act
	}
	wire := netWire{Sizes: n.sizes, Acts: acts, Params: n.params}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("nn: encoding network: %w", err)
	}
	return nil
}

// Load reads a network written by Save.
func Load(r io.Reader) (*Network, error) {
	var wire netWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("nn: decoding network: %w", err)
	}
	if len(wire.Sizes) < 2 || len(wire.Acts) != len(wire.Sizes)-1 {
		return nil, fmt.Errorf("nn: corrupt network: %d sizes, %d acts", len(wire.Sizes), len(wire.Acts))
	}
	// Bound the parameter count New would allocate before it does: a
	// stream of a few bytes must not make the loader ask for terabytes.
	// Layer l holds in·out + out = out·(in+1) parameters; comparing by
	// division keeps the check itself from overflowing.
	total := 0
	for l, s := range wire.Sizes {
		if s <= 0 || s > maxParams {
			return nil, fmt.Errorf("nn: corrupt network: layer size %d", s)
		}
		if l == 0 {
			continue
		}
		in := wire.Sizes[l-1]
		if s > (maxParams-total)/(in+1) {
			return nil, fmt.Errorf("nn: corrupt network: more than %d parameters", maxParams)
		}
		total += s * (in + 1)
	}
	// Rebuild layout via New, then overwrite activations and params.
	n, err := New(0, wire.Sizes, ActReLU, ActLinear)
	if err != nil {
		return nil, err
	}
	for i := range n.layers {
		if wire.Acts[i] < ActLinear || wire.Acts[i] > ActSigmoid {
			return nil, fmt.Errorf("nn: corrupt network: unknown activation %d", wire.Acts[i])
		}
		n.layers[i].act = wire.Acts[i]
	}
	if len(wire.Params) != len(n.params) {
		return nil, fmt.Errorf("nn: corrupt network: %d params, want %d", len(wire.Params), len(n.params))
	}
	copy(n.params, wire.Params)
	return n, nil
}

// maxParams caps the parameter count Load accepts (32 MiB of weights):
// the dispatch networks have a few thousand parameters, so anything near
// it is corruption, not a model.
const maxParams = 1 << 22

// Checkpoint envelope
//
// Higher layers (internal/rl's learner checkpoints, written by
// internal/train) persist their state inside a small self-validating
// binary envelope so that a truncated copy, a bit flip on disk, or a file
// from a different format generation is rejected with a typed error
// instead of silently loading a partial network:
//
//	offset  size  field
//	0       4     magic "MRCK"
//	4       4     format version (uint32, little-endian)
//	8       8     episode count (uint64, little-endian)
//	16      8     payload length (uint64, little-endian)
//	24      4     CRC-32 (IEEE) of the payload
//	28      n     payload (caller-defined, typically gob)
//
// The header carries the format version and the training episode count so
// tooling can inspect a checkpoint without decoding the payload.

// envelopeMagic identifies a MobiRescue checkpoint file.
var envelopeMagic = [4]byte{'M', 'R', 'C', 'K'}

// MaxEnvelopePayload caps the declared payload length. Anything larger is
// rejected before allocation so corrupt or adversarial headers cannot ask
// the loader to allocate gigabytes.
const MaxEnvelopePayload = 64 << 20

// Typed envelope errors. Callers match them with errors.Is / errors.As.
var (
	// ErrEnvelopeTruncated reports a stream that ended before the header
	// or the declared payload was complete.
	ErrEnvelopeTruncated = errors.New("nn: checkpoint truncated")
	// ErrEnvelopeMagic reports a stream that is not a checkpoint at all.
	ErrEnvelopeMagic = errors.New("nn: not a checkpoint (bad magic)")
	// ErrEnvelopeChecksum reports payload corruption (CRC mismatch).
	ErrEnvelopeChecksum = errors.New("nn: checkpoint checksum mismatch")
	// ErrEnvelopeTooLarge reports a declared payload over MaxEnvelopePayload.
	ErrEnvelopeTooLarge = errors.New("nn: checkpoint payload exceeds size cap")
)

// VersionError reports a checkpoint written under a different format
// version than the reader expects. It matches errors.Is(err,
// ErrEnvelopeVersion) as well.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("nn: checkpoint format version %d, want %d", e.Got, e.Want)
}

// Is makes VersionError match ErrEnvelopeVersion under errors.Is.
func (e *VersionError) Is(target error) bool { return target == ErrEnvelopeVersion }

// ErrEnvelopeVersion is the errors.Is sentinel for VersionError.
var ErrEnvelopeVersion = errors.New("nn: checkpoint format version mismatch")

// EnvelopeHeader is the metadata carried ahead of the payload.
type EnvelopeHeader struct {
	// Version is the caller's payload format version.
	Version uint32
	// Episodes is the number of training episodes the checkpointed state
	// has absorbed.
	Episodes uint64
}

// WriteEnvelope writes header and payload to w in the checkpoint envelope
// format (magic, version, episode count, length, CRC-32, payload).
func WriteEnvelope(w io.Writer, h EnvelopeHeader, payload []byte) error {
	if len(payload) > MaxEnvelopePayload {
		return fmt.Errorf("%w: %d bytes", ErrEnvelopeTooLarge, len(payload))
	}
	var hdr [28]byte
	copy(hdr[0:4], envelopeMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], h.Version)
	binary.LittleEndian.PutUint64(hdr[8:16], h.Episodes)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[24:28], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("nn: writing checkpoint header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("nn: writing checkpoint payload: %w", err)
	}
	return nil
}

// ReadEnvelope reads and validates a checkpoint envelope written by
// WriteEnvelope, returning the header and the verified payload. It
// rejects truncated streams (ErrEnvelopeTruncated), wrong magic
// (ErrEnvelopeMagic), oversized payload declarations
// (ErrEnvelopeTooLarge), version mismatches (*VersionError, matching
// ErrEnvelopeVersion), and checksum failures (ErrEnvelopeChecksum). It
// never panics and never returns a partially validated payload.
func ReadEnvelope(r io.Reader, wantVersion uint32) (EnvelopeHeader, []byte, error) {
	var hdr [28]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return EnvelopeHeader{}, nil, fmt.Errorf("%w: header: %v", ErrEnvelopeTruncated, err)
	}
	if [4]byte(hdr[0:4]) != envelopeMagic {
		return EnvelopeHeader{}, nil, ErrEnvelopeMagic
	}
	h := EnvelopeHeader{
		Version:  binary.LittleEndian.Uint32(hdr[4:8]),
		Episodes: binary.LittleEndian.Uint64(hdr[8:16]),
	}
	if h.Version != wantVersion {
		return EnvelopeHeader{}, nil, &VersionError{Got: h.Version, Want: wantVersion}
	}
	length := binary.LittleEndian.Uint64(hdr[16:24])
	if length > MaxEnvelopePayload {
		return EnvelopeHeader{}, nil, fmt.Errorf("%w: %d bytes declared", ErrEnvelopeTooLarge, length)
	}
	payload := make([]byte, int(length))
	if _, err := io.ReadFull(r, payload); err != nil {
		return EnvelopeHeader{}, nil, fmt.Errorf("%w: payload: %v", ErrEnvelopeTruncated, err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[24:28]) {
		return EnvelopeHeader{}, nil, ErrEnvelopeChecksum
	}
	return h, payload, nil
}
