package wire

// Replication record frames. After an OpReplicate subscription is
// acknowledged, the server→subscriber direction of the connection carries
// only these frames (the subscriber→server direction carries ack requests),
// so there is no ambiguity with response frames: direction and position
// select the decoder. Record frames reuse the same CRC32C framing as
// requests and responses.
//
// A record payload is
//
//	u64 lsn | u16 op | u16 nameLen | name | u32 payLen | payload | u32 dataLen | data
//
// where op, name and payload are the WAL record fields shipped verbatim
// (opaque to the wire layer) and data is the object block content the
// record's payload references — the WAL logs metadata only, so replication
// must carry the data alongside.

import (
	"encoding/binary"
	"fmt"
)

// MaxRecordField bounds the name and payload fields of a record frame,
// mirroring the WAL's own field limits.
const MaxRecordField = 1 << 12

// Record is one replicated WAL record plus the object data it references.
type Record struct {
	// LSN is the record's log sequence number; zero is invalid.
	LSN uint64
	// Op is the WAL operation code, shipped verbatim.
	Op uint16
	// Name is the object name.
	Name []byte
	// Payload is the WAL record payload (allocation metadata), verbatim.
	Payload []byte
	// Data is the object content Payload references: for each content-
	// carrying sub-op, in record order, one frame `u8 present | u32 len |
	// data`, present 0 with no bytes when the content could not be read
	// back; empty for records that carry none.
	Data []byte
}

// AppendRecordFrame appends a framed record to dst.
func AppendRecordFrame(dst []byte, rec *Record) ([]byte, error) {
	if rec.LSN == 0 {
		return dst, fmt.Errorf("%w: record LSN 0", ErrMalformed)
	}
	if len(rec.Name) > MaxRecordField || len(rec.Payload) > MaxRecordField {
		return dst, fmt.Errorf("%w: record fields too large (%d, %d)",
			ErrMalformed, len(rec.Name), len(rec.Payload))
	}
	dst, off := beginFrame(dst)
	dst = binary.LittleEndian.AppendUint64(dst, rec.LSN)
	dst = binary.LittleEndian.AppendUint16(dst, rec.Op)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Name)))
	dst = append(dst, rec.Name...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Payload)))
	dst = append(dst, rec.Payload...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Data)))
	dst = append(dst, rec.Data...)
	return finishFrame(dst, off), nil
}

// DecodeRecordFrame parses a record payload. The returned record's Name,
// Payload and Data alias payload.
func DecodeRecordFrame(payload []byte) (Record, error) {
	d := decoder{p: payload}
	var rec Record
	rec.LSN = d.u64()
	rec.Op = d.u16()
	nameLen := int(d.u16())
	if d.err == nil && nameLen > MaxRecordField {
		return Record{}, fmt.Errorf("%w: record name length %d", ErrMalformed, nameLen)
	}
	rec.Name = d.bytes(nameLen)
	payLen := int(d.u32())
	if d.err == nil && payLen > MaxRecordField {
		return Record{}, fmt.Errorf("%w: record payload length %d", ErrMalformed, payLen)
	}
	rec.Payload = d.bytes(payLen)
	rec.Data = d.bytes(int(d.u32()))
	if !d.done() {
		return Record{}, d.fail("record")
	}
	if rec.LSN == 0 {
		return Record{}, fmt.Errorf("%w: record LSN 0", ErrMalformed)
	}
	return rec, nil
}

// ReplicateRequest builds the OpReplicate request subscribing from lsn
// (records with LSN > lsn will be streamed). The same shape doubles as the
// subscriber's ack: an OpReplicate request on an already-subscribed
// connection acknowledges application through lsn and gets no response.
func ReplicateRequest(id, lsn uint64) Request {
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], lsn)
	return Request{ID: id, Op: OpReplicate, Value: v[:]}
}

// ReplicateLSN extracts the subscribe/ack LSN from an OpReplicate request.
func ReplicateLSN(req *Request) (uint64, error) {
	if len(req.Value) != 8 {
		return 0, fmt.Errorf("%w: replicate value length %d", ErrMalformed, len(req.Value))
	}
	return binary.LittleEndian.Uint64(req.Value), nil
}
