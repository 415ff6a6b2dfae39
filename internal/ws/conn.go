package ws

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// maxMessagePayload bounds the payload of every frame a Conn accepts.
const maxMessagePayload = 1 << 20

// Conn is an established WebSocket connection. One goroutine may read
// (ReadMessage) while others write (WriteMessage is internally
// serialised).
type Conn struct {
	nc       net.Conn
	isClient bool // client connections mask outgoing frames
	rng      *rand.Rand

	writeMu sync.Mutex
	readMu  sync.Mutex

	stateMu   sync.Mutex
	closed    bool
	closeSent bool

	// Stats counts wire traffic for the push-vs-poll experiment.
	statsMu      sync.Mutex
	bytesRead    uint64
	bytesWritten uint64
	msgsRead     uint64
	msgsWritten  uint64
}

// newConn wraps an upgraded network connection.
func newConn(nc net.Conn, isClient bool, seed int64) *Conn {
	return &Conn{
		nc:       nc,
		isClient: isClient,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Stats reports cumulative wire traffic on this connection.
type Stats struct {
	BytesRead    uint64 `json:"bytesRead"`
	BytesWritten uint64 `json:"bytesWritten"`
	MsgsRead     uint64 `json:"msgsRead"`
	MsgsWritten  uint64 `json:"msgsWritten"`
}

// Stats returns a snapshot of wire counters.
func (c *Conn) Stats() Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return Stats{c.bytesRead, c.bytesWritten, c.msgsRead, c.msgsWritten}
}

// countingWriter tracks written bytes toward Stats.
type countingWriter struct {
	c *Conn
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.c.nc.Write(p)
	w.c.statsMu.Lock()
	w.c.bytesWritten += uint64(n)
	w.c.statsMu.Unlock()
	return n, err
}

// countingReader tracks read bytes toward Stats.
type countingReader struct {
	c *Conn
}

func (r countingReader) Read(p []byte) (int, error) {
	n, err := r.c.nc.Read(p)
	r.c.statsMu.Lock()
	r.c.bytesRead += uint64(n)
	r.c.statsMu.Unlock()
	return n, err
}

// WriteMessage sends a complete text or binary message.
func (c *Conn) WriteMessage(op Opcode, payload []byte) error {
	if op != OpText && op != OpBinary {
		return fmt.Errorf("WriteMessage with %v: %w", op, ErrProtocol)
	}
	return c.writeFrameLocked(op, payload)
}

func (c *Conn) writeFrameLocked(op Opcode, payload []byte) error {
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return ErrClosed
	}
	c.stateMu.Unlock()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	err := writeFrame(countingWriter{c}, frame{
		fin:     true,
		opcode:  op,
		masked:  c.isClient,
		payload: payload,
	}, c.rng)
	if err != nil {
		return err
	}
	c.statsMu.Lock()
	c.msgsWritten++
	c.statsMu.Unlock()
	return nil
}

// Message is a received data message.
type Message struct {
	Op      Opcode
	Payload []byte
}

// ReadMessage blocks until the next data message, transparently answering
// pings and handling the close handshake. On a clean close it returns
// ErrClosed.
func (c *Conn) ReadMessage() (Message, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	for {
		c.stateMu.Lock()
		if c.closed {
			c.stateMu.Unlock()
			return Message{}, ErrClosed
		}
		c.stateMu.Unlock()

		f, err := readFrame(countingReader{c}, maxMessagePayload)
		if err != nil {
			c.abort()
			return Message{}, err
		}
		switch f.opcode {
		case OpText, OpBinary:
			if !f.fin {
				// Fragmentation is out of scope; reject rather than
				// silently corrupt.
				c.abort()
				return Message{}, fmt.Errorf("fragmented message: %w", ErrProtocol)
			}
			c.statsMu.Lock()
			c.msgsRead++
			c.statsMu.Unlock()
			return Message{Op: f.opcode, Payload: f.payload}, nil
		case OpPing:
			if err := c.writeControl(OpPong, f.payload); err != nil {
				return Message{}, err
			}
		case OpPong:
			// Ignore unsolicited pongs.
		case OpClose:
			// Echo the close (if we didn't initiate) then tear down.
			c.stateMu.Lock()
			sent := c.closeSent
			c.closeSent = true
			c.stateMu.Unlock()
			if !sent {
				c.writeControl(OpClose, f.payload)
			}
			c.abort()
			return Message{}, ErrClosed
		default:
			c.abort()
			return Message{}, fmt.Errorf("unexpected opcode %v: %w", f.opcode, ErrProtocol)
		}
	}
}

// maxControlPayload is RFC 6455 Section 5.5's bound on control-frame
// payloads; a close frame's reason shares it with the 2-byte status.
const maxControlPayload = 125

func (c *Conn) writeControl(op Opcode, payload []byte) error {
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return ErrClosed
	}
	c.stateMu.Unlock()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return writeFrame(countingWriter{c}, frame{fin: true, opcode: op, masked: c.isClient, payload: payload}, c.rng)
}

// CloseStatus codes (RFC 6455 Section 7.4.1).
const (
	CloseNormal      = 1000
	CloseGoingAway   = 1001
	CloseProtocolErr = 1002
	CloseInternalErr = 1011
)

// Close performs the closing handshake: sends a close frame with the
// given status code and closes the underlying connection. Reasons
// longer than RFC 6455 allows (125 payload bytes minus the 2-byte
// status) are truncated at a rune boundary so the frame stays valid
// UTF-8, rather than emitting an oversized control frame the peer must
// reject.
func (c *Conn) Close(code uint16, reason string) error {
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return nil
	}
	alreadySent := c.closeSent
	c.closeSent = true
	c.stateMu.Unlock()
	if !alreadySent {
		reason = truncateReason(reason, maxControlPayload-2)
		payload := make([]byte, 2+len(reason))
		binary.BigEndian.PutUint16(payload, code)
		copy(payload[2:], reason)
		// Best-effort: the peer may already be gone.
		c.writeMu.Lock()
		writeFrame(countingWriter{c}, frame{fin: true, opcode: OpClose, masked: c.isClient, payload: payload}, c.rng)
		c.writeMu.Unlock()
	}
	return c.abort()
}

// truncateReason clips a close reason to max bytes without splitting a
// UTF-8 sequence (close payloads must be valid UTF-8 after the status).
func truncateReason(reason string, max int) string {
	if len(reason) <= max {
		return reason
	}
	cut := max
	// Back up over any continuation bytes so the cut lands on a rune
	// boundary; a rune is at most 4 bytes.
	for cut > 0 && cut > max-3 && reason[cut]&0xC0 == 0x80 {
		cut--
	}
	return reason[:cut]
}

// abort tears down the transport without a handshake.
func (c *Conn) abort() error {
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return nil
	}
	c.closed = true
	c.stateMu.Unlock()
	return c.nc.Close()
}

// SetReadDeadline bounds the next read.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }
