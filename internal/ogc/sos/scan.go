package sos

import (
	"strconv"
	"strings"
)

// scanInsert is the InsertObservation fast path: it matches the
// canonical document shape and returns the struct encoding/xml decodes
// from it, or ok false for any other document. The shape is
//
//	ws* <[p:]InsertObservation( xmlns[:q]="v")* ws*>
//	ws* <[p:]Observation>
//	    ws* <[p:]E>text</[p:]E>    three times: procedure, samplingTime
//	                               and result, each once, in any order
//	ws* </[p:]Observation>
//	ws* </[p:]InsertObservation> ws*
//
// where ws is XML whitespace, names are ASCII, each close tag repeats
// its open tag's name, and text and v are printable ASCII without
// escapable characters (plainByte). Such text reaches the decoder
// verbatim (no entity, no line-end normalisation), so the struct is the
// one Decode would fill. A result strconv refuses is left to the decoder
// too, which answers it with its own error.
func scanInsert(doc string) (xmlInsertObservation, bool) {
	var out xmlInsertObservation
	c := insertScanner{s: doc}
	c.space()
	root, local, ok := c.startTag()
	if !ok || local != "InsertObservation" || !c.xmlnsAttrs() {
		return out, false
	}
	c.space()
	obs, local, ok := c.startTag()
	if !ok || local != "Observation" || !c.lit(">") {
		return out, false
	}
	var seen [3]bool
	var result string
	for range seen {
		c.space()
		name, local, ok := c.startTag()
		if !ok || !c.lit(">") {
			return out, false
		}
		text, ok := c.text('<')
		if !ok || !c.endTag(name) {
			return out, false
		}
		var field int
		switch local {
		case "procedure":
			field, out.Procedure = 0, text
		case "samplingTime":
			field, out.Time = 1, text
		case "result":
			field, result = 2, text
		default:
			return out, false
		}
		if seen[field] {
			return out, false
		}
		seen[field] = true
	}
	c.space()
	if !c.endTag(obs) {
		return out, false
	}
	c.space()
	if !c.endTag(root) {
		return out, false
	}
	c.space()
	if c.i != len(doc) {
		return out, false
	}
	// encoding/xml reads an empty float element as 0 and parses any
	// other content with its surrounding spaces trimmed.
	var v float64
	if result != "" {
		var err error
		if v, err = strconv.ParseFloat(strings.TrimSpace(result), 64); err != nil {
			return out, false
		}
	}
	out.Value = &v
	return out, true
}

// plainByte reports whether b is printable ASCII that XML neither
// escapes nor treats as markup.
func plainByte(b byte) bool {
	return 0x20 <= b && b <= 0x7e && b != '&' && b != '<' && b != '>' && b != '"' && b != '\''
}

// plainText reports whether every byte of s is a plainByte: encoding/xml
// writes such text as it is.
func plainText(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

// insertScanner is a cursor over an InsertObservation document.
type insertScanner struct {
	s string
	i int
}

func (c *insertScanner) space() {
	for c.i < len(c.s) {
		switch c.s[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// lit consumes lit if the input continues with it.
func (c *insertScanner) lit(lit string) bool {
	if !strings.HasPrefix(c.s[c.i:], lit) {
		return false
	}
	c.i += len(lit)
	return true
}

// startTag consumes "<" and an element name, returning the name as
// written and its local part.
func (c *insertScanner) startTag() (name, local string, ok bool) {
	if !c.lit("<") {
		return "", "", false
	}
	return c.name()
}

// endTag consumes "</name>".
func (c *insertScanner) endTag(name string) bool {
	return c.lit("</") && c.lit(name) && c.lit(">")
}

// name consumes a [prefix:]local name of ASCII letters, digits, '_',
// '-' and '.', each part starting with a letter or '_', and returns it
// whole and its local part.
func (c *insertScanner) name() (name, local string, ok bool) {
	start, localAt := c.i, c.i
	for ; c.i < len(c.s); c.i++ {
		b := c.s[c.i]
		if b == ':' && localAt == start && c.i > start {
			localAt = c.i + 1
			continue
		}
		letter := 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || b == '_'
		if !letter && (c.i == localAt || !('0' <= b && b <= '9' || b == '-' || b == '.')) {
			break
		}
	}
	if c.i == localAt {
		return "", "", false
	}
	return c.s[start:c.i], c.s[localAt:c.i], true
}

// text consumes plain bytes up to end, which it leaves unconsumed.
func (c *insertScanner) text(end byte) (string, bool) {
	start := c.i
	for c.i < len(c.s) && plainByte(c.s[c.i]) {
		c.i++
	}
	if c.i == len(c.s) || c.s[c.i] != end {
		return "", false
	}
	return c.s[start:c.i], true
}

// xmlnsAttrs consumes the root's namespace declarations, each
// whitespace-led xmlns="v" or xmlns:q="v", and the ">" that closes the
// tag.
func (c *insertScanner) xmlnsAttrs() bool {
	for {
		at := c.i
		c.space()
		if c.lit(">") {
			return true
		}
		if c.i == at {
			return false
		}
		name, local, ok := c.name()
		if !ok || !(name == "xmlns" || len(name) == len("xmlns:")+len(local) && strings.HasPrefix(name, "xmlns:")) {
			return false
		}
		if !c.lit(`="`) {
			return false
		}
		if _, ok := c.text('"'); !ok {
			return false
		}
		c.i++
	}
}
