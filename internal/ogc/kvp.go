// Package ogc holds the protocol rules the OGC services (ogc/wps and
// ogc/sos) share.
package ogc

import (
	"net/url"
	"strings"
)

// KVP returns the query's parameters under lower-cased names: OGC KVP
// names are case-insensitive. Of several spellings of one name, the
// greatest in byte order, the lower-case one, is read, so the value never
// depends on map order.
func KVP(raw url.Values) url.Values {
	q, spelling := make(url.Values, len(raw)), make(map[string]string, len(raw))
	for k, v := range raw {
		if lk := strings.ToLower(k); k > spelling[lk] {
			q[lk], spelling[lk] = v, k
		}
	}
	return q
}
