// Package wal is the durability layer under the serve scheduler: an
// append-only write-ahead log of committed write epochs plus periodic
// full-state checkpoints, with a recovery routine that folds the two
// back into the key/value state the index held at crash time.
//
// The unit of logging is the serve layer's *write epoch*: the longest
// prefix of the write FIFO that is serially equivalent to "all its
// inserts, then all its deletes" (serve/sched.go has the commutation
// argument). One WAL record therefore carries one epoch as two
// sections — the insert section's keys and values, then the delete
// section's keys — stamped with a monotonically increasing sequence
// number, and replay applies the sections in that order. Either
// section may be empty. Records are CRC-framed; a torn final record
// (the normal result of killing a process mid-append) is detected and
// dropped during recovery, which matters because an epoch is only
// acknowledged to clients *after* its record reaches the log.
//
// The package depends only on bitstr and metrics so that core, serve,
// and command binaries can all layer on top of it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/pimlab/pimtrie/internal/bitstr"
)

// Section selectors for Log.Append, the one-section shorthand.
const (
	OpInsert uint8 = 0
	OpDelete uint8 = 1
)

// Epoch is one decoded WAL record: a committed write epoch, applied as
// Inserts (with Values) first, then Deletes.
type Epoch struct {
	Seq     uint64
	Inserts []bitstr.String
	Values  []uint64 // parallel to Inserts
	Deletes []bitstr.String
}

// Frame layout (little-endian):
//
//	u32 payload length | u32 crc32(payload) | payload
//
// Payload:
//
//	u64 seq | u32 ninserts | u32 ndeletes |
//	ninserts × key | ninserts × u64 value | ndeletes × key
//
// Key: uvarint bit-length followed by ceil(bits/8) bytes, MSB-first
// within each byte (bitstr.Bytes / bitstr.FromBytes).
const frameHeaderSize = 8

// payloadFixedSize is the seq and the two section counts.
const payloadFixedSize = 16

// maxPayload bounds a frame's declared payload size so that a
// corrupted length field cannot drive a giant allocation; anything
// larger is treated as a torn/corrupt record.
const maxPayload = 1 << 30

var errBadRecord = errors.New("wal: bad record")

// appendKey encodes one key: uvarint bit-length + packed bytes.
func appendKey(buf []byte, k bitstr.String) []byte {
	buf = binary.AppendUvarint(buf, uint64(k.Len()))
	return append(buf, k.Bytes()...)
}

// decodeKey decodes one key starting at off, returning the new offset.
func decodeKey(p []byte, off int) (bitstr.String, int, error) {
	bits, n := binary.Uvarint(p[off:])
	if n <= 0 || bits > maxPayload {
		return bitstr.String{}, 0, errBadRecord
	}
	off += n
	nb := (int(bits) + 7) / 8
	if off+nb > len(p) {
		return bitstr.String{}, 0, errBadRecord
	}
	k := bitstr.FromBytes(p[off : off+nb]).Prefix(int(bits))
	return k, off + nb, nil
}

// appendPayload encodes an epoch record payload into buf.
func appendPayload(buf []byte, seq uint64, inserts []bitstr.String, values []uint64, deletes []bitstr.String) ([]byte, error) {
	if len(values) != len(inserts) {
		return nil, fmt.Errorf("wal: %d insert keys but %d values", len(inserts), len(values))
	}
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(inserts)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(deletes)))
	for _, k := range inserts {
		buf = appendKey(buf, k)
	}
	for _, v := range values {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	for _, k := range deletes {
		buf = appendKey(buf, k)
	}
	return buf, nil
}

// decodeKeys decodes n keys starting at off, returning the new offset.
// A key takes at least one byte, which bounds n before anything is
// allocated for it.
func decodeKeys(p []byte, off, n int) ([]bitstr.String, int, error) {
	if n < 0 || n > len(p)-off {
		return nil, 0, errBadRecord
	}
	if n == 0 {
		return nil, off, nil
	}
	keys := make([]bitstr.String, n)
	for i := range keys {
		var err error
		keys[i], off, err = decodeKey(p, off)
		if err != nil {
			return nil, 0, err
		}
	}
	return keys, off, nil
}

// decodePayload decodes an epoch record payload.
func decodePayload(p []byte) (Epoch, error) {
	var e Epoch
	if len(p) < payloadFixedSize {
		return e, errBadRecord
	}
	e.Seq = binary.LittleEndian.Uint64(p)
	nins := int(binary.LittleEndian.Uint32(p[8:]))
	ndel := int(binary.LittleEndian.Uint32(p[12:]))
	off := payloadFixedSize
	var err error
	if e.Inserts, off, err = decodeKeys(p, off, nins); err != nil {
		return e, err
	}
	if 8*nins > len(p)-off {
		return e, errBadRecord
	}
	if nins > 0 {
		e.Values = make([]uint64, nins)
		for i := range e.Values {
			e.Values[i] = binary.LittleEndian.Uint64(p[off:])
			off += 8
		}
	}
	if e.Deletes, off, err = decodeKeys(p, off, ndel); err != nil {
		return e, err
	}
	if off != len(p) {
		return e, errBadRecord
	}
	return e, nil
}
