package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// tableDigests pins every experiment's table: one SHA-256 over its ID,
// title, columns and cells, with the notes and the host-timed cells
// (wallClock) left out. A change that moves any paper-facing number
// changes its digest.
var tableDigests = map[string]string{
	"E1":  "14d70b7677cb7f0d324a1d985cb5ec475cd51a8888671d91db1100cf3f880f94",
	"E2":  "0e9a44d8da996b24db3787693c52354092dea571bd2a978cb78a28d921cb0a1a",
	"E3":  "9340ddde6e6f374984cc995978ed047d1242f49d0af8b7dd0c6476bd5b2f7f3f",
	"E4":  "51099b7dfda7907306b7200ad1b12dc67dbd182df17af347e15e317ac8507887",
	"E5":  "caf0c1bb7331642645334b7863e392758bfc0797503edad21304119e242f075c",
	"E6":  "1b72383fb3621af31c5ff397c58fb6e2ead17c3dacbfd02431391fd737590eaf",
	"E7":  "b838271f86ef9e7097c2d1a258bda9e46bf09580d6a3023adbc87faefe907053",
	"E8":  "788a36dee615967504f3a25658587e9d8ed513cf5b66c7d41a95c17dc6b55b2f",
	"E9":  "4f9e38b08ff94a4dfd3b66a8a20d27b69e31db0730798a9b0d203330f1084c60",
	"E10": "d7fa923a3c69ce30925b8b666473a07863c6b135b51a3a5947242e52ff5e9aef",
	"E11": "b75c28568a83f5e5f8aeb086a5ceb5f7942fd7533bff48089c44e31a673a8592",
	"E12": "3c32684fc68b67b0369f49be5291856eb3c456db633b4f2b8fac255c79c41f49",
	"E14": "2062975689567bd518d95041e6e27041bc004eaa66b3d652341e054b9d01e288",
	"E15": "dc1f24ff648a9918dc7581d07a3701f0120514ce411c57470cf00aaa8f8842a2",
	"E16": "671b695ef776657698115329b3420334fa369591b0d60c893596aa26f97b2d8c",
	"E17": "1e206c6c2e42750fc3fd32655810b14b5e7e470007fab2bca80215a4846d2bc1",
	"E18": "0be58b1b39beb63e52d21608217ef5cb72b1c091a2fb8042a840b0dfad41a089",
	"E19": "cb823d4301f15a534ca21f825f641f95a5db574af360cbc01d0ea4efb2727314",
	"A1":  "f88a0ff0f9b0638432c2eb18b1e187faf3e601a24f686b491a2c2a9b478e29cf",
	"A2":  "babe5b56ee88a520c5afe6f045b770c003e740aab80fb73fe03238a55d21a919",
	"A3":  "b6727d9f955846d5a37a335072ca8233018fdde58fbe0ca57ca97ed47a38cf4f",
}

// wallClock reports whether a cell holds a host timing, which no run
// repeats: E1's per-hop latency, E3's wall time, E7's timings and the
// speedups derived from them, and E12's execute wall time.
func wallClock(id string, columns, row []string, col int) bool {
	switch id {
	case "E1":
		return columns[col] == "latency"
	case "E3":
		return columns[col] == "wallTime"
	case "E7":
		return columns[col] != "instances"
	case "E12":
		return row[0] == "execute wall time" && col > 0
	}
	return false
}

// tableDigest hashes t as tableDigests describes, each string length
// prefixed and each masked cell as the empty string.
func tableDigest(t *Table) string {
	sum := sha256.New()
	putS := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		sum.Write(n[:])
		sum.Write([]byte(s))
	}
	putS(t.ID)
	putS(t.Title)
	for _, c := range t.Columns {
		putS(c)
	}
	for _, row := range t.Rows {
		putS("\n")
		for i, cell := range row {
			if wallClock(t.ID, t.Columns, row, i) {
				cell = ""
			}
			putS(cell)
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// TestExperimentDigests runs every experiment and checks its table
// against the pinned digest.
func TestExperimentDigests(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			got := tableDigest(runExperiment(t, id))
			if want := tableDigests[id]; got != want {
				t.Errorf("%s table digest = %s, want %s", id, got, want)
			}
		})
	}
}
