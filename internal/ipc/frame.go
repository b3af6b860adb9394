package ipc

// Tagged framing: the one wire format of the protocol.
//
// A frame is a 12-byte header — 4-byte big-endian payload length,
// 8-byte big-endian tag — followed by the gob payload.  The tag is
// assigned by the client (monotonically increasing per connection) and
// echoed by the server on the completion, so one connection carries
// any number of in-flight calls and responses return in whatever order
// the server finishes them.
//
// A connection runs one persistent gob encoder and one persistent
// decoder per direction: type descriptors cross the wire once at
// stream start, and every later frame is just the value bytes.  The
// framing itself is allocation-free in steady state — the send buffer
// is reused with a 12-byte header hole reserved at the front (one
// conn.Write per frame, no copy), the receive buffer is reused and
// grown to the high-water mark, and header scratch lives in the
// reader — pinned by TestFramedHotPathAllocFree.

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
)

// hdrSize is the frame header: 4-byte payload length + 8-byte tag.
const hdrSize = 12

// sendBuf assembles one outgoing frame: the gob encoder appends
// payload bytes after a reserved header hole, seal stamps the header
// in place, and the whole frame goes out in a single Write.  The
// backing array is reused across frames (capacity is retained).
type sendBuf struct{ b []byte }

// reset prepares the buffer for a new frame, keeping capacity.
func (s *sendBuf) reset() {
	if cap(s.b) < hdrSize {
		s.b = make([]byte, hdrSize, 512)
	}
	s.b = s.b[:hdrSize]
}

// Write implements io.Writer for the gob encoder: payload bytes land
// directly after the header hole.
func (s *sendBuf) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// payloadLen reports the bytes accumulated past the header.
func (s *sendBuf) payloadLen() int { return len(s.b) - hdrSize }

// seal stamps the header (payload length + tag) in place; the frame
// is then s.b, ready for one Write to the connection.
func (s *sendBuf) seal(tag uint64) {
	binary.BigEndian.PutUint32(s.b[0:4], uint32(len(s.b)-hdrSize))
	binary.BigEndian.PutUint64(s.b[4:12], tag)
}

// tagBytes exposes the sealed header's tag field — the deterministic
// corruption point for the fault framework's ipc.write corrupt rules
// (flipping tag bits exercises the receiver's tag-mismatch defense
// without desynchronizing the gob payload stream).
func (s *sendBuf) tagBytes() []byte { return s.b[4:12] }

// frameWriter encodes one direction of a connection: a persistent gob
// encoder into the reused send buffer.  Not safe for concurrent use;
// callers serialize frames under their send lock.
type frameWriter struct {
	sbuf sendBuf
	enc  *gob.Encoder
}

func newFrameWriter() *frameWriter {
	w := &frameWriter{}
	w.enc = gob.NewEncoder(&w.sbuf)
	return w
}

// frame encodes v as one sealed frame carrying tag.  The returned
// slice aliases the send buffer — valid until the next call.  An error
// leaves the encoder's stream state unknown: the connection must die.
func (w *frameWriter) frame(tag uint64, v interface{}) ([]byte, error) {
	w.sbuf.reset()
	if err := w.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("ipc: encode: %w", err)
	}
	if w.sbuf.payloadLen() > maxFrame {
		return nil, fmt.Errorf("ipc: frame too large (%d bytes)", w.sbuf.payloadLen())
	}
	w.sbuf.seal(tag)
	return w.sbuf.b, nil
}

// readTagged reads one frame: header into hdr, payload into *buf
// (reused and grown as needed; the returned slice aliases it — valid
// only until the next call).  A claimed length beyond maxFrame is
// refused before anything is allocated for it.  Frame damage surfaces
// as *FrameError; a clean close between frames is io.EOF.
func readTagged(r io.Reader, hdr *[hdrSize]byte, buf *[]byte) (tag uint64, payload []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, &FrameError{Reason: "truncated", Err: err}
		}
		return 0, nil, err // io.EOF (clean close) or transport error
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	tag = binary.BigEndian.Uint64(hdr[4:12])
	if n > maxFrame {
		return tag, nil, &FrameError{Reason: "oversized", Size: n}
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	} else {
		*buf = (*buf)[:n]
	}
	if _, err := io.ReadFull(r, *buf); err != nil {
		return tag, nil, &FrameError{Reason: "truncated", Size: n, Err: err}
	}
	return tag, *buf, nil
}

// payloadFeeder hands one frame's payload to a persistent gob decoder.
// The decoder consumes exactly the bytes one Encode produced (gob
// messages are self-delimiting), so refilling before each Decode keeps
// the stream aligned frame by frame.
type payloadFeeder struct{ b []byte }

func (f *payloadFeeder) Read(p []byte) (int, error) {
	if len(f.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.b)
	f.b = f.b[n:]
	return n, nil
}

// frameReader decodes one direction of a connection: tagged frames
// off r, each payload fed through the persistent gob decoder.  Header
// scratch and the payload buffer are reused across frames.
type frameReader struct {
	r      io.Reader
	hdr    [hdrSize]byte
	buf    []byte
	feeder payloadFeeder
	dec    *gob.Decoder
}

func newFrameReader(r io.Reader) *frameReader {
	f := &frameReader{r: r}
	f.dec = gob.NewDecoder(&f.feeder)
	return f
}

// next reads one frame and decodes its payload into v.  A payload the
// decoder rejects is a "malformed" *FrameError; after any error the
// stream is unusable.
func (f *frameReader) next(v interface{}) (tag uint64, err error) {
	tag, payload, err := readTagged(f.r, &f.hdr, &f.buf)
	if err != nil {
		return tag, err
	}
	f.feeder.b = payload
	if err := f.dec.Decode(v); err != nil {
		return tag, &FrameError{Reason: "malformed", Size: uint32(len(payload)), Err: err}
	}
	return tag, nil
}
