// Package httpcond implements the conditional-request plumbing shared by
// the portal's series endpoints and public documents and the SOS
// service: strong entity tags derived from a sensor's ingest sequence
// or a stored body, If-None-Match evaluation and 304 short-circuits.
// Tags are deterministic — the same store state and query always hash
// to byte-identical ETags, so intermediary caches revalidate cheaply
// while ingest is quiet.
package httpcond

import (
	"net/http"
	"strconv"
	"strings"
	"time"
)

// FNV-1a 64-bit parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Tag builds a strong entity tag by hashing the parts (typically: an
// endpoint name, the sensor ID, its ingest sequence and the query
// parameters that shape the response body). Identical parts always
// produce a byte-identical tag: the quoted, zero-padded 16-hex-digit
// FNV-1a 64 of the parts, each followed by a 0 byte so ("ab","c") and
// ("a","bc") differ. The result string is its only allocation.
func Tag(parts ...string) string {
	h := NewHash()
	for _, p := range parts {
		h = h.Part(p)
	}
	return h.Tag()
}

// Hash builds the tag Tag builds from the same parts, one part at a
// time, so a caller need not format its numbers as strings first: Int
// and Uint hash the decimal text strconv.FormatInt and FormatUint give.
// Chain the calls from NewHash and finish with Tag.
type Hash struct{ sum uint64 }

// NewHash starts a tag with no parts.
func NewHash() Hash { return Hash{fnvOffset64} }

// Part adds a string part.
func (h Hash) Part(s string) Hash { return add(h, s) }

// Int adds a signed integer part as its decimal text.
func (h Hash) Int(v int64) Hash {
	var buf [20]byte
	return add(h, strconv.AppendInt(buf[:0], v, 10))
}

// Uint adds an unsigned integer part as its decimal text.
func (h Hash) Uint(v uint64) Hash {
	var buf [20]byte
	return add(h, strconv.AppendUint(buf[:0], v, 10))
}

// add hashes one part and its 0 delimiter.
func add[T string | []byte](h Hash, p T) Hash {
	for i := 0; i < len(p); i++ {
		h.sum ^= uint64(p[i])
		h.sum *= fnvPrime64
	}
	h.sum *= fnvPrime64 // the 0 delimiter: h ^= 0 is a no-op
	return h
}

// Tag returns the quoted entity tag; the string is its only allocation.
func (h Hash) Tag() string {
	const hex = "0123456789abcdef"
	var buf [18]byte
	buf[0], buf[17] = '"', '"'
	for i, sum := 16, h.sum; i > 0; i-- {
		buf[i] = hex[sum&0xf]
		sum >>= 4
	}
	return string(buf[:])
}

// Match reports whether the request's If-None-Match header matches etag
// per RFC 9110: a comma-separated candidate list, "*" matching anything,
// weak validators compared by opaque value.
func Match(r *http.Request, etag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, cand := range strings.Split(inm, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

// Apply stamps the validators on a response about to be written (either
// the full body or a 304).
func Apply(w http.ResponseWriter, etag string, lastModified time.Time) {
	w.Header().Set("Etag", etag)
	if !lastModified.IsZero() {
		w.Header().Set("Last-Modified", lastModified.UTC().Format(http.TimeFormat))
	}
}
