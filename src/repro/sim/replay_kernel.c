/*
 * Compiled sequential core of the columnar replay.
 *
 * Two loops of repro.sim.array_replay run here, over dense per-level
 * cache state that the Python carries own (NumPy arrays passed in by
 * pointer and updated in place):
 *
 *   lru_sweep  exact per-access LRU outcomes for one demand-fill
 *              level (the no-plan replay's L1I/L2/L3 sweeps);
 *   plan_walk  the plan-bearing replay's decision walk: prefetch issue,
 *              L1I demand, L2/L3 fills, data traffic, the in-flight
 *              map and the fill-port timing fold.
 *
 * Both replay the reference simulator's operations in its exact order.
 * Every float is a plain IEEE double add/compare in the reference's
 * sequence; the build uses -ffp-contract=off and never -ffast-math,
 * so results are bit-identical to the Python reference loop.
 *
 * Nothing here computes an index from data: set indices arrive
 * precomputed (Python/NumPy floor modulo), and the ctypes wrapper
 * checks rows, lines and lengths before the call.
 */

#include <stdint.h>
#include <string.h>

/* One cache level.  Way k of set s lives at [s * ways + k]; the first
 * fill[s] ways are valid, MRU first.  pend marks lines filled by a
 * prefetch and not yet demanded (it moves with its tag).  touched marks
 * sets the reference simulator would have created (any probe creates
 * one, even when nothing is filled). */
typedef struct {
    int64_t num_sets;
    int64_t ways;
    int64_t pd;           /* prefetch insertion depth */
    int64_t *tags;
    int64_t *fill;
    uint8_t *pend;
    uint8_t *touched;
} level_t;

/* Insertion-ordered in-flight map: an append-only log (popped entries
 * marked -1) indexed by an open-addressing hash of log positions
 * (-1 empty, -2 deleted). */
typedef struct {
    int64_t cap;
    int64_t n;
    int64_t *line;
    double *arrival;
    int64_t mask;
    int64_t *slot;
} inflight_t;

typedef struct {
    int64_t n;                  /* blocks in the shard */
    int64_t boundary;           /* local warmup reset index, or -1 */
    const int64_t *rows;        /* [n] program rows */
    const int64_t *plan_id;     /* [n] site combo index, or -1 */
    const int64_t *combo_start; /* [n_combos + 1] into tgt_* */
    const double *combo_cost;   /* [n_combos] pipeline-slot cost */
    const int64_t *tgt_line;
    const int64_t *tgt_s1;
    const int64_t *tgt_s2;
    const int64_t *tgt_s3;
    const int64_t *line_start;  /* [num_rows + 1] CSR into line_* */
    const int64_t *line_data;
    const int64_t *line_s1;
    const int64_t *line_s2;
    const int64_t *line_s3;
    const double *incr_row;     /* [num_rows] compute cycles per block */
    const int64_t *data_count;  /* [n] data accesses per block */
    const int64_t *data_line;
    const int64_t *data_s2;
    const int64_t *data_s3;
    double penalty[4];
    double occupancy[4];
} walk_t;

/* Counter slots of plan_walk, in the order the wrapper packs them. */
enum {
    LATE_HITS, SIM_MISSES, ISSUED, RESIDENT, C2, C3, CM,
    L1_DH, L1_DM, L1_PH, L1_PF, L1_PU, L1_EV,
    L2_DH, L2_DM, L2_PH, L2_PF, L2_PU, L2_EV,
    L3_DH, L3_DM, L3_PH, L3_PF, L3_PU, L3_EV,
    N_COUNTERS
};
enum { DH, DM, PH, PF, PU, EV };   /* offsets within a level's block */
enum { NOW, BUSY, FRONTEND_STALLS, LATE_STALL };

static int64_t find_way(const level_t *lv, int64_t s, int64_t line)
{
    const int64_t *t = lv->tags + s * lv->ways;
    int64_t f = lv->fill[s];
    for (int64_t k = 0; k < f; k++)
        if (t[k] == line)
            return k;
    return -1;
}

/* Promote way k to MRU; returns whether it was a pending prefetch
 * (the demand clears the flag). */
static int promote(level_t *lv, int64_t s, int64_t k)
{
    int64_t *t = lv->tags + s * lv->ways;
    uint8_t *p = lv->pend + s * lv->ways;
    int64_t line = t[k];
    int was_pending = p[k];
    memmove(t + 1, t, (size_t)k * sizeof(int64_t));
    memmove(p + 1, p, (size_t)k);
    t[0] = line;
    p[0] = 0;
    return was_pending;
}

/* Install a line that is not resident: evict the LRU way when the set
 * is full, then insert at `depth` (or the LRU end when shallower). */
static void install(level_t *lv, int64_t s, int64_t line, int64_t depth,
                    uint8_t pending, int64_t *c)
{
    int64_t ways = lv->ways;
    int64_t *t = lv->tags + s * ways;
    uint8_t *p = lv->pend + s * ways;
    int64_t f = lv->fill[s];
    if (f >= ways) {
        f = ways - 1;
        c[EV]++;
        if (p[f])
            c[PU]++;
    }
    int64_t pos = depth < f ? depth : f;
    memmove(t + pos + 1, t + pos, (size_t)(f - pos) * sizeof(int64_t));
    memmove(p + pos + 1, p + pos, (size_t)(f - pos));
    t[pos] = line;
    p[pos] = pending;
    lv->fill[s] = f + 1;
    if (pending)
        c[PF]++;
}

/* A demand access at one level: hit promotes (and settles a pending
 * prefetch), miss only counts; returns 1 on hit. */
static int demand(level_t *lv, int64_t s, int64_t line, int64_t *c)
{
    lv->touched[s] = 1;
    int64_t k = find_way(lv, s, line);
    if (k < 0) {
        c[DM]++;
        return 0;
    }
    c[DH]++;
    if (promote(lv, s, k))
        c[PH]++;
    return 1;
}

int lru_sweep(level_t *lv, int64_t n, const int64_t *lines,
              const int64_t *sets, uint8_t *hits, uint8_t *evicts)
{
    int64_t ways = lv->ways;
    for (int64_t i = 0; i < n; i++) {
        int64_t line = lines[i];
        int64_t s = sets[i];
        int64_t *t = lv->tags + s * ways;
        int64_t f = lv->fill[s];
        lv->touched[s] = 1;
        evicts[i] = 0;
        if (f && t[0] == line) {
            hits[i] = 1;
            continue;
        }
        int64_t k = find_way(lv, s, line);
        if (k >= 0) {
            memmove(t + 1, t, (size_t)k * sizeof(int64_t));
            t[0] = line;
            hits[i] = 1;
            continue;
        }
        hits[i] = 0;
        if (f >= ways) {
            f = ways - 1;
            evicts[i] = 1;
        }
        memmove(t + 1, t, (size_t)f * sizeof(int64_t));
        t[0] = line;
        lv->fill[s] = f + 1;
    }
    return 0;
}

static uint64_t mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
}

/* Hash slot holding `line`, or -1. */
static int64_t fl_find(const inflight_t *fl, int64_t line)
{
    int64_t i = (int64_t)(mix((uint64_t)line) & (uint64_t)fl->mask);
    for (;;) {
        int64_t at = fl->slot[i];
        if (at == -1)
            return -1;
        if (at >= 0 && fl->line[at] == line)
            return i;
        i = (i + 1) & fl->mask;
    }
}

/* Append an absent line; -1 when the log is full. */
static int fl_insert(inflight_t *fl, int64_t line, double arrival)
{
    if (fl->n >= fl->cap)
        return -1;
    int64_t i = (int64_t)(mix((uint64_t)line) & (uint64_t)fl->mask);
    while (fl->slot[i] >= 0)
        i = (i + 1) & fl->mask;
    fl->slot[i] = fl->n;
    fl->line[fl->n] = line;
    fl->arrival[fl->n] = arrival;
    fl->n++;
    return 0;
}

int plan_walk(const walk_t *w, level_t *l1, level_t *l2, level_t *l3,
              inflight_t *fl, int64_t *c, double *f)
{
    int64_t *c1 = c + L1_DH, *c2 = c + L2_DH, *c3 = c + L3_DH;
    double now = f[NOW], busy = f[BUSY];
    double frontend_stalls = f[FRONTEND_STALLS], late_stall = f[LATE_STALL];
    int64_t data_ptr = 0;

    /* index the carried in-flight entries (log order = insertion order) */
    for (int64_t at = 0; at < fl->n; at++) {
        int64_t i = (int64_t)(mix((uint64_t)fl->line[at]) & (uint64_t)fl->mask);
        while (fl->slot[i] >= 0)
            i = (i + 1) & fl->mask;
        fl->slot[i] = at;
    }

    for (int64_t t = 0; t < w->n; t++) {
        if (t == w->boundary) {
            /* steady state begins: zero the counters, keep all state */
            memset(c, 0, N_COUNTERS * sizeof(int64_t));
            frontend_stalls = 0.0;
            late_stall = 0.0;
        }

        int64_t combo = w->plan_id[t];
        if (combo >= 0) {
            for (int64_t k = w->combo_start[combo];
                 k < w->combo_start[combo + 1]; k++) {
                int64_t line = w->tgt_line[k];
                if (fl_find(fl, line) >= 0) {
                    c[RESIDENT]++;
                    continue;
                }
                int64_t s1 = w->tgt_s1[k], s2 = w->tgt_s2[k];
                l1->touched[s1] = 1;
                if (find_way(l1, s1, line) >= 0) {
                    c[RESIDENT]++;
                    continue;
                }
                l2->touched[s2] = 1;
                int level;
                if (find_way(l2, s2, line) >= 0) {
                    level = 1;
                } else {
                    int64_t s3 = w->tgt_s3[k];
                    l3->touched[s3] = 1;
                    if (find_way(l3, s3, line) >= 0) {
                        level = 2;
                    } else {
                        level = 3;
                        install(l3, s3, line, l3->pd, 1, c3);
                    }
                    install(l2, s2, line, l2->pd, 1, c2);
                }
                install(l1, s1, line, l1->pd, 1, c1);
                c[ISSUED]++;
                double start = now > busy ? now : busy;
                busy = start + w->occupancy[level];
                double arrival = start + w->penalty[level];
                if (arrival > now && fl_insert(fl, line, arrival) < 0)
                    return -1;
            }
            now += w->combo_cost[combo];
        }

        int64_t row = w->rows[t];
        double stall = 0.0;
        for (int64_t k = w->line_start[row]; k < w->line_start[row + 1]; k++) {
            int64_t line = w->line_data[k];
            int64_t s1 = w->line_s1[k];
            int64_t at = fl_find(fl, line);
            if (at >= 0) {
                double arrival = fl->arrival[fl->slot[at]];
                fl->line[fl->slot[at]] = -1;
                fl->slot[at] = -2;
                if (arrival > now + stall) {
                    /* late prefetch: pay only the remaining latency; the
                     * L1I access runs for its side effects alone */
                    double remainder = arrival - (now + stall);
                    stall += remainder;
                    c[LATE_HITS]++;
                    late_stall += remainder;
                    demand(l1, s1, line, c1);
                    continue;
                }
            }
            if (demand(l1, s1, line, c1))
                continue;
            int64_t s2 = w->line_s2[k];
            int level;
            if (demand(l2, s2, line, c2)) {
                level = 1;
                c[C2]++;
            } else {
                int64_t s3 = w->line_s3[k];
                if (demand(l3, s3, line, c3)) {
                    level = 2;
                    c[C3]++;
                } else {
                    level = 3;
                    c[CM]++;
                    install(l3, s3, line, 0, 0, c3);
                }
                install(l2, s2, line, 0, 0, c2);
            }
            install(l1, s1, line, 0, 0, c1);
            c[SIM_MISSES]++;
            double start = now + stall;
            if (start < busy)
                start = busy;
            busy = start + w->occupancy[level];
            stall = (start + w->penalty[level]) - now;
        }
        if (stall != 0.0) {
            frontend_stalls += stall;
            now += stall;
        }
        now += w->incr_row[row];

        int64_t stop = data_ptr + w->data_count[t];
        for (; data_ptr < stop; data_ptr++) {
            int64_t line = w->data_line[data_ptr];
            int64_t s2 = w->data_s2[data_ptr];
            if (demand(l2, s2, line, c2))
                continue;
            int64_t s3 = w->data_s3[data_ptr];
            if (!demand(l3, s3, line, c3))
                install(l3, s3, line, 0, 0, c3);
            install(l2, s2, line, 0, 0, c2);
        }
    }

    f[NOW] = now;
    f[BUSY] = busy;
    f[FRONTEND_STALLS] = frontend_stalls;
    f[LATE_STALL] = late_stall;
    return 0;
}
