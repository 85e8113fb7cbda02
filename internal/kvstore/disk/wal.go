package disk

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"

	"paxoscp/internal/kvstore"
)

// WAL record format (DESIGN.md §14). Each record is
//
//	uvarint(len(payload)) | crc32-IEEE(payload) little-endian | payload
//
// and the payload is
//
//	op(1 byte) | uvarint(len(key)) key | per-op fields
//
// with per-op fields:
//
//	OpWrite:  varint(ts) | uvarint(nattrs) | nattrs × (uvarint-len attr, uvarint-len value)
//	OpDelete: (nothing)
//	OpGC:     varint(keepFrom)
//
// The OpWrite value (nattrs and the pairs) is exactly kvstore.Packed, the
// store's in-memory version encoding: attributes in sorted order, so
// identical mutations encode to identical bytes, and Append copies the
// store's bytes instead of re-encoding. The op byte values are kvstore.Op
// constants, which are frozen (renumbering them would corrupt every
// existing log).

// maxRecordBytes bounds a single record. A length prefix beyond it is treated
// as a torn tail (final segment) or corruption (sealed segment) instead of an
// attempt to allocate garbage gigabytes.
const maxRecordBytes = 64 << 20

// appendRecord encodes m as one WAL record appended to dst.
func appendRecord(dst []byte, m kvstore.Mutation) []byte {
	var payload [64]byte // stack seed; real records usually fit
	p := payload[:0]
	p = append(p, byte(m.Op))
	p = binary.AppendUvarint(p, uint64(len(m.Key)))
	p = append(p, m.Key...)
	switch m.Op {
	case kvstore.OpWrite:
		p = binary.AppendVarint(p, m.TS)
		p = append(p, m.Value...)
	case kvstore.OpDelete:
		// key only
	case kvstore.OpGC:
		p = binary.AppendVarint(p, m.TS)
	}
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(p))
	return append(dst, p...)
}

// errTorn marks a record that ends mid-air: short length prefix, short body,
// or checksum mismatch. In the final (active-at-crash) segment this is the
// expected power-loss signature and recovery truncates it away; in a sealed
// segment it is corruption and recovery refuses to proceed.
var errTorn = errors.New("torn record")

// readRecord reads one record from r. It returns errTorn (possibly wrapped)
// for any malformed tail, io.EOF exactly at a record boundary, and the
// decoded mutation otherwise.
func readRecord(r *bufio.Reader) (kvstore.Mutation, error) {
	n, err := binary.ReadUvarint(r)
	if err == io.EOF {
		return kvstore.Mutation{}, io.EOF // clean boundary
	}
	if err != nil {
		return kvstore.Mutation{}, fmt.Errorf("%w: length prefix: %v", errTorn, err)
	}
	if n == 0 || n > maxRecordBytes {
		return kvstore.Mutation{}, fmt.Errorf("%w: implausible record length %d", errTorn, n)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return kvstore.Mutation{}, fmt.Errorf("%w: checksum: %v", errTorn, err)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return kvstore.Mutation{}, fmt.Errorf("%w: body: %v", errTorn, err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return kvstore.Mutation{}, fmt.Errorf("%w: checksum mismatch", errTorn)
	}
	m, err := decodePayload(payload)
	if err != nil {
		// The checksum matched, so this is not a tear: the writer produced
		// bytes the reader cannot parse. Surface it as corruption always.
		return kvstore.Mutation{}, err
	}
	return m, nil
}

func decodePayload(p []byte) (kvstore.Mutation, error) {
	var m kvstore.Mutation
	if len(p) < 1 {
		return m, errors.New("disk: empty payload")
	}
	m.Op = kvstore.Op(p[0])
	p = p[1:]
	key, p, err := decodeString(p)
	if err != nil {
		return m, fmt.Errorf("disk: record key: %w", err)
	}
	m.Key = key
	switch m.Op {
	case kvstore.OpWrite:
		ts, n := binary.Varint(p)
		if n <= 0 {
			return m, errors.New("disk: record ts")
		}
		m.TS = ts
		if m.Value, err = kvstore.ParsePacked(p[n:]); err != nil {
			return m, fmt.Errorf("disk: record value: %w", err)
		}
	case kvstore.OpDelete:
		// key only
	case kvstore.OpGC:
		ts, n := binary.Varint(p)
		if n <= 0 {
			return m, errors.New("disk: record keepFrom")
		}
		m.TS = ts
	default:
		return m, fmt.Errorf("disk: unknown op %d", m.Op)
	}
	return m, nil
}

func decodeString(p []byte) (string, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return "", p, errors.New("bad string length")
	}
	return string(p[w : w+int(n)]), p[w+int(n):], nil
}

// Segment and snapshot file naming: wal-<startseq>.log holds records
// startseq, startseq+1, ... positionally (a record's sequence number is
// derived from its position, never stored); snap-<seq>.snap is a kvstore gob
// snapshot reflecting every mutation with sequence number <= seq.

func segmentName(startSeq uint64) string {
	return "wal-" + pad20(startSeq) + ".log"
}

func snapshotName(seq uint64) string {
	return "snap-" + pad20(seq) + ".snap"
}

func pad20(n uint64) string {
	s := strconv.FormatUint(n, 10)
	if len(s) < 20 {
		s = strings.Repeat("0", 20-len(s)) + s
	}
	return s
}

// parseSeq extracts the sequence number from a segment or snapshot file name,
// returning ok=false for unrelated files.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if mid == "" {
		return 0, false
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
