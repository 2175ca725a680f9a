package main

// The benchmark's own copies of the paper's two applications, so
// internal/bench and the examples can change without moving a number.

const (
	winLen          = 8    // W: elements per window — 32 B payload, the smallest packet
	dataLen         = 4096 // int32 gradient elements per worker per round
	windowsPerRound = dataLen / winLen

	kvsKeys     = 4096
	kvsCached   = 64
	kvsValBytes = 16
	kvsZipf     = 0.99
)

// allreduceNCL is the Fig. 4 kernel pair: the switch accumulates each
// window into register slots and broadcasts a slot's sums once every
// worker has contributed; the incoming kernel lands them in host memory.
// accum is never reset, so round r's result is the running sum of rounds
// 0..r — which is what the generator checks.
const allreduceNCL = `
#define DATA_LEN 4096

_net_ _at_("s1") int accum[DATA_LEN] = {0};
_net_ _at_("s1") unsigned count[DATA_LEN] = {0};
_net_ _at_("s1") _ctrl_ unsigned nworkers;

_net_ _out_ void allreduce(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    if (++count[window.seq] == nworkers) {
        memcpy(data, &accum[base], window.len * 4);
        count[window.seq] = 0; _bcast();
    } else { _drop(); }
}

_net_ _in_ void result(int *data, _ext_ int *hdata, _ext_ bool *done) {
    for (unsigned i = 0; i < window.len; ++i)
        hdata[window.seq * window.len + i] = data[i];
    *done = true;
}
`

// starAND is the Fig. 2 star: two workers on one aggregation switch.
const starAND = "switch s1 id=1\nhost worker count=2 role=0\nlink worker s1\n"

// fatTreeStarAND is the same star with its workers named after two
// FatTree(8) hosts in different pods (16 hosts per pod), so DeployOn has
// to place s1 and route every window across the core.
const fatTreeStarAND = "switch s1 id=1\nhost h0 role=0\nhost h64 role=0\nlink h0 s1\nlink h64 s1\n"

const fatTreeArity = 8

// kvsNCL is the Fig. 5 NetCache-style cache: GETs for cached keys are
// reflected by the switch, misses continue to the server.
const kvsNCL = `
#define SERVER 1
#define CAP 64
#define VAL 16

_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, CAP> Idx;
_net_ _at_("s1") char Cache[CAP][VAL] = {{0}};
_net_ _at_("s1") bool Valid[CAP] = {false};

_net_ _out_ void query(uint64_t key, char *val, bool update) {
    if (window.from != SERVER && update) {
        if (auto *idx = Idx[key]) Valid[*idx] = false;
    } else if (window.from != SERVER) {
        if (auto *idx = Idx[key]) {
            if (Valid[*idx]) {
                memcpy(val, Cache[*idx], VAL); _reflect(); } }
    } else if (update) {
        auto *idx = Idx[key]; memcpy(Cache[*idx], val, VAL);
        Valid[*idx] = true; _drop();
    } else { }
}

_net_ _in_ void reply(uint64_t key, char *val, bool update, _ext_ uint64_t *rkey, _ext_ char *rval) {
    *rkey = key;
    for (unsigned i = 0; i < window.len; ++i) rval[i] = val[i];
}
`

const kvsAND = `
switch s1 id=1
host client role=0
host server role=1
link client s1
link s1 server
`
