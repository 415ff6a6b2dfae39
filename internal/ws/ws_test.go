package ws

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"
)

func TestFrameRoundTripProperty(t *testing.T) {
	// Property: writeFrame -> readFrame preserves opcode, fin and payload
	// for all payload sizes and masking choices.
	rng := rand.New(rand.NewSource(1))
	f := func(payload []byte, masked bool, opIdx uint8) bool {
		op := []Opcode{OpText, OpBinary}[int(opIdx)%2]
		var buf bytes.Buffer
		in := frame{fin: true, opcode: op, masked: masked, payload: payload}
		if err := writeFrame(&buf, in, rng); err != nil {
			return false
		}
		out, err := readFrame(&buf, 0)
		if err != nil {
			return false
		}
		return out.fin && out.opcode == op && bytes.Equal(out.payload, payload) &&
			out.masked == masked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameExtendedLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, size := range []int{0, 125, 126, 127, 65535, 65536, 70000} {
		payload := bytes.Repeat([]byte{0xAB}, size)
		var buf bytes.Buffer
		if err := writeFrame(&buf, frame{fin: true, opcode: OpBinary, payload: payload}, rng); err != nil {
			t.Fatalf("writeFrame(%d): %v", size, err)
		}
		out, err := readFrame(&buf, 0)
		if err != nil {
			t.Fatalf("readFrame(%d): %v", size, err)
		}
		if len(out.payload) != size {
			t.Fatalf("size %d round-tripped to %d", size, len(out.payload))
		}
	}
}

func TestFrameControlTooLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	big := bytes.Repeat([]byte{1}, 126)
	if err := writeFrame(&buf, frame{fin: true, opcode: OpPing, payload: big}, rng); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized ping err = %v", err)
	}
}

func TestFrameReadLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var buf bytes.Buffer
	writeFrame(&buf, frame{fin: true, opcode: OpBinary, payload: make([]byte, 1000)}, rng)
	if _, err := readFrame(&buf, 100); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("read over limit err = %v", err)
	}
}

func TestFrameRejectsRSVBits(t *testing.T) {
	data := []byte{0x80 | 0x40 | byte(OpText), 0x00}
	if _, err := readFrame(bytes.NewReader(data), 0); !errors.Is(err, ErrProtocol) {
		t.Fatalf("RSV bits err = %v", err)
	}
}

func TestAcceptKeyRFCExample(t *testing.T) {
	// The worked example from RFC 6455 Section 1.3.
	got := acceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	if got != "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" {
		t.Fatalf("acceptKey = %q", got)
	}
}

// echoServer upgrades and echoes every message back.
func echoServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close(CloseNormal, "bye")
		for {
			msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if err := conn.WriteMessage(msg.Op, msg.Payload); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func wsURL(srv *httptest.Server) string {
	return "ws" + strings.TrimPrefix(srv.URL, "http")
}

func TestDialAndEcho(t *testing.T) {
	srv := echoServer(t)
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close(CloseNormal, "")

	for _, msg := range []string{"hello", "", strings.Repeat("x", 70000)} {
		if err := conn.WriteMessage(OpText, []byte(msg)); err != nil {
			t.Fatalf("WriteMessage: %v", err)
		}
		got, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("ReadMessage: %v", err)
		}
		if got.Op != OpText || string(got.Payload) != msg {
			t.Fatalf("echo = %v %q, want %q", got.Op, got.Payload, msg)
		}
	}
}

func TestBinaryEcho(t *testing.T) {
	srv := echoServer(t)
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close(CloseNormal, "")
	payload := []byte{0, 1, 2, 255, 254}
	if err := conn.WriteMessage(OpBinary, payload); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	got, err := conn.ReadMessage()
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if got.Op != OpBinary || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("echo = %+v", got)
	}
}

func TestPingAnsweredTransparently(t *testing.T) {
	srv := echoServer(t)
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close(CloseNormal, "")
	// Ping then a data message: ReadMessage should deliver only the data
	// (the server's ReadMessage answers our ping internally).
	if err := conn.writeControl(OpPing, []byte("beat")); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := conn.WriteMessage(OpText, []byte("data")); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	got, err := conn.ReadMessage()
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if string(got.Payload) != "data" {
		t.Fatalf("got %q", got.Payload)
	}
}

func TestCloseHandshake(t *testing.T) {
	srv := echoServer(t)
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := conn.Close(CloseNormal, "done"); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := conn.WriteMessage(OpText, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close err = %v", err)
	}
	if _, err := conn.ReadMessage(); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close err = %v", err)
	}
	if err := conn.Close(CloseNormal, "again"); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestServerInitiatedClose(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		conn.Close(CloseGoingAway, "maintenance")
	}))
	t.Cleanup(srv.Close)
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.ReadMessage(); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadMessage after server close err = %v", err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	srv := echoServer(t)
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close(CloseNormal, "")
	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := conn.WriteMessage(OpText, []byte("m")); err != nil {
					t.Errorf("WriteMessage: %v", err)
					return
				}
			}
		}()
	}
	got := 0
	for got < writers*perWriter {
		msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("ReadMessage after %d: %v", got, err)
		}
		if string(msg.Payload) != "m" {
			t.Fatalf("corrupted frame: %q", msg.Payload)
		}
		got++
	}
	wg.Wait()
}

func TestStatsCount(t *testing.T) {
	srv := echoServer(t)
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close(CloseNormal, "")
	conn.WriteMessage(OpText, []byte("hello"))
	conn.ReadMessage()
	st := conn.Stats()
	if st.MsgsWritten != 1 || st.MsgsRead != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.BytesWritten == 0 || st.BytesRead == 0 {
		t.Fatalf("byte counters zero: %+v", st)
	}
	// Client frames are masked: 2 header + 4 mask + 5 payload = 11.
	if st.BytesWritten != 11 {
		t.Fatalf("BytesWritten = %d, want 11", st.BytesWritten)
	}
	// Server frames are unmasked: 2 + 5 = 7.
	if st.BytesRead != 7 {
		t.Fatalf("BytesRead = %d, want 7", st.BytesRead)
	}
}

func TestUpgradeRejectsBadRequests(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r); !errors.Is(err, ErrHandshake) {
			t.Errorf("Upgrade err = %v, want ErrHandshake", err)
		}
	})
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)

	tests := []struct {
		name   string
		mutate func(*http.Request)
		method string
	}{
		{"POST", nil, http.MethodPost},
		{"no connection header", func(r *http.Request) {
			r.Header.Set("Upgrade", "websocket")
			r.Header.Set("Sec-WebSocket-Version", "13")
			r.Header.Set("Sec-WebSocket-Key", "AAAA")
		}, http.MethodGet},
		{"bad version", func(r *http.Request) {
			r.Header.Set("Connection", "Upgrade")
			r.Header.Set("Upgrade", "websocket")
			r.Header.Set("Sec-WebSocket-Version", "8")
			r.Header.Set("Sec-WebSocket-Key", "AAAA")
		}, http.MethodGet},
		{"missing key", func(r *http.Request) {
			r.Header.Set("Connection", "Upgrade")
			r.Header.Set("Upgrade", "websocket")
			r.Header.Set("Sec-WebSocket-Version", "13")
		}, http.MethodGet},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL, nil)
			if err != nil {
				t.Fatalf("NewRequest: %v", err)
			}
			if tc.mutate != nil {
				tc.mutate(req)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatalf("Do: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusSwitchingProtocols {
				t.Fatal("bad request was upgraded")
			}
			if tc.method != http.MethodGet && (resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet) {
				t.Fatalf("%s = %d, Allow %q; want 405, Allow GET", tc.method, resp.StatusCode, resp.Header.Get("Allow"))
			}
		})
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("http://example.com"); !errors.Is(err, ErrHandshake) {
		t.Fatalf("http scheme err = %v", err)
	}
	if _, err := Dial("://bad"); err == nil {
		t.Fatal("unparsable URL accepted")
	}
	// A plain HTTP server that refuses to upgrade.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusTeapot)
	}))
	t.Cleanup(srv.Close)
	if _, err := Dial(wsURL(srv)); !errors.Is(err, ErrHandshake) {
		t.Fatalf("non-upgrading server err = %v", err)
	}
	// Nothing listening.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial("ws://" + addr + "/"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestWriteMessageRejectsControlOpcodes(t *testing.T) {
	srv := echoServer(t)
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close(CloseNormal, "")
	if err := conn.WriteMessage(OpPing, nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("WriteMessage(ping) err = %v", err)
	}
}

func TestOpcodeString(t *testing.T) {
	for op, want := range map[Opcode]string{
		OpText: "text", OpBinary: "binary", OpClose: "close",
		OpPing: "ping", OpPong: "pong", OpContinuation: "continuation",
		Opcode(0x5): "Opcode(0x5)",
	} {
		if got := op.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if !OpClose.IsControl() || OpText.IsControl() {
		t.Fatal("IsControl wrong")
	}
}

func TestCloseReasonTruncatedToControlLimit(t *testing.T) {
	// A close reason longer than RFC 6455's 125-byte control-frame limit
	// must be truncated, not sent as an oversized (invalid) frame.
	for _, tc := range []struct {
		name   string
		reason string
	}{
		{"ascii", strings.Repeat("x", 200)},
		{"multibyte", strings.Repeat("é", 100)}, // 200 bytes of 2-byte runes
	} {
		t.Run(tc.name, func(t *testing.T) {
			server, client := net.Pipe()
			conn := newConn(server, false, 1)
			done := make(chan error, 1)
			go func() { done <- conn.Close(CloseNormal, tc.reason) }()

			f, err := readFrame(client, 0)
			if err != nil {
				t.Fatalf("readFrame: %v", err)
			}
			if err := <-done; err != nil {
				t.Fatalf("Close: %v", err)
			}
			if f.opcode != OpClose {
				t.Fatalf("opcode = %v, want close", f.opcode)
			}
			if len(f.payload) > maxControlPayload {
				t.Fatalf("close payload %d bytes exceeds control limit %d",
					len(f.payload), maxControlPayload)
			}
			if got := binary.BigEndian.Uint16(f.payload); got != CloseNormal {
				t.Fatalf("status = %d, want %d", got, CloseNormal)
			}
			got := string(f.payload[2:])
			if !utf8.ValidString(got) {
				t.Fatalf("truncated reason is not valid UTF-8: %q", got)
			}
			if !strings.HasPrefix(tc.reason, got) || len(got) == 0 {
				t.Fatalf("reason %q is not a prefix of the original", got)
			}
		})
	}
}

func TestCloseShortReasonUnmodified(t *testing.T) {
	server, client := net.Pipe()
	conn := newConn(server, false, 1)
	done := make(chan error, 1)
	go func() { done <- conn.Close(CloseGoingAway, "bye") }()
	f, err := readFrame(client, 0)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	<-done
	if string(f.payload[2:]) != "bye" {
		t.Fatalf("reason = %q, want %q", f.payload[2:], "bye")
	}
}

func TestTruncateReasonRuneBoundaries(t *testing.T) {
	for _, tc := range []struct {
		in   string
		max  int
		want string
	}{
		{"short", 10, "short"},
		{"exact-----", 10, "exact-----"},
		{strings.Repeat("a", 12), 10, strings.Repeat("a", 10)},
		{"abé", 3, "ab"},                          // 2-byte rune straddles the cut
		{"a€€", 4, "a€"},                          // 3-byte rune straddles the cut
		{"\U0001F30A\U0001F30A", 6, "\U0001F30A"}, // 4-byte rune straddles
		{"", 5, ""},
	} {
		if got := truncateReason(tc.in, tc.max); got != tc.want {
			t.Errorf("truncateReason(%q, %d) = %q, want %q", tc.in, tc.max, got, tc.want)
		}
	}
}
