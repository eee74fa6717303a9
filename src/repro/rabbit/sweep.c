/* Compiled kernels of sequential Rabbit Order: the aggregation sweep
 * (Algorithm 2 lines 3-8 with Algorithm 4's lazy aggregation), its setup
 * pass and degree visit order, and ordering generation (the dendrogram
 * DFS); at the end of the file, the level-synchronous BFS the analyses
 * and the BFS/RCM orderings run.
 *
 * Per vertex the sweep performs the dict engine's operations in the dict
 * engine's order (repro/rabbit/common.py, repro/rabbit/seq.py), so the
 * dendrogram is bit-identical:
 *   - members are u (its raw CSR row, self-loops doubled and untraced)
 *     and then its child chain (each child's stored entry, traced);
 *   - endpoints resolve through dest with grandparent compression;
 *   - weights accumulate per community in first-encounter order, the
 *     first one as 0.0 + w;
 *   - dQ = 2.0 * (w * inv_2m - comm_deg[v] * penalty), the first strict
 *     maximum wins;
 *   - the entry is the keys in encounter order, then the self-loop.
 * Build with -ffp-contract=off: an FMA in delta_q (or is_close) changes
 * the last ulp.
 *
 * All state is caller-owned (numpy arrays); nothing here is global, so
 * concurrent calls on disjoint state are safe. */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

static inline double delta_q(double w, double deg, double inv_2m,
                             double penalty) {
    return 2.0 * (w * inv_2m - deg * penalty);
}

void rabbit_delta_q(const double *w, const double *deg, int64_t k,
                    double inv_2m, double penalty, double *out) {
    for (int64_t j = 0; j < k; j++)
        out[j] = delta_q(w[j], deg[j], inv_2m, penalty);
}

static inline int64_t trace(int64_t *dest, int64_t v) {
    for (;;) {
        int64_t d = dest[v], dd = dest[d];
        if (d == dd)
            return d;
        dest[v] = dd;
        v = dd;
    }
}

#define FOLD(t, w)                                                  \
    do {                                                            \
        int64_t d_ = trace(dest, (t));                              \
        if (d_ == u) {                                              \
            loop += (w);                                            \
        } else if (pos[d_] < 0) {                                   \
            pos[d_] = cnt;                                          \
            nk[cnt] = d_;                                           \
            nw[cnt++] = 0.0 + (w);                                  \
        } else {                                                    \
            nw[pos[d_]] += (w);                                     \
        }                                                           \
    } while (0)

/* Decide order[i] for i in [start, stop).  Returns early (before
 * vertex i) once max_work items were folded or when vertex i's entry
 * might not fit the pool; then st[4] is the pool size it needs.
 * st = {pool_used, toplevels, edges_scanned, merges, pool_need}.
 * weights and vertex_work may be NULL; pos is all -1 on entry and exit. */
int64_t rabbit_sweep(const int64_t *indptr, const int64_t *indices,
                     const double *weights, const int64_t *order,
                     int64_t start, int64_t stop, int64_t max_work,
                     int64_t *dest, int64_t *child, int64_t *sibling,
                     double *comm_deg, int64_t *pos, int64_t *adj_off,
                     int64_t *adj_len, int64_t *pool_keys, double *pool_ws,
                     int64_t pool_cap, int64_t *toplevel,
                     int64_t *vertex_work, double two_m,
                     double merge_threshold, int64_t *st) {
    const double inv_2m = 1.0 / two_m;
    int64_t work = 0, i;
    st[4] = 0;
    for (i = start; i < stop && work < max_work; i++) {
        const int64_t u = order[i];
        int64_t total = indptr[u + 1] - indptr[u];
        for (int64_t c = child[u]; c >= 0; c = sibling[c])
            if (adj_len[c] > 0) /* -1: never folded (only in bad snapshots) */
                total += adj_len[c];
        if (st[0] + total + 1 > pool_cap) {
            st[4] = st[0] + total + 1;
            break;
        }
        int64_t *nk = pool_keys + st[0];
        double *nw = pool_ws + st[0];
        int64_t cnt = 0;
        double loop = 0.0;
        for (int64_t k = indptr[u]; k < indptr[u + 1]; k++) {
            const int64_t t = indices[k];
            const double w = weights ? weights[k] : 1.0;
            if (t == u)
                loop += 2.0 * w;
            else
                FOLD(t, w);
        }
        for (int64_t c = child[u]; c >= 0; c = sibling[c])
            for (int64_t k = adj_off[c]; k < adj_off[c] + adj_len[c]; k++)
                FOLD(pool_keys[k], pool_ws[k]);
        const double d_u = comm_deg[u];
        const double penalty = d_u / (two_m * two_m);
        int64_t best_v = -1;
        double best_dq = -INFINITY;
        for (int64_t j = 0; j < cnt; j++) {
            const double dq = delta_q(nw[j], comm_deg[nk[j]], inv_2m, penalty);
            if (dq > best_dq) {
                best_dq = dq;
                best_v = nk[j];
            }
            pos[nk[j]] = -1;
        }
        nk[cnt] = u;
        nw[cnt] = loop;
        adj_off[u] = st[0];
        adj_len[u] = cnt + 1;
        st[0] += cnt + 1;
        st[2] += total;
        work += total;
        if (vertex_work)
            vertex_work[u] += total;
        if (best_v < 0 || best_dq <= merge_threshold) {
            toplevel[st[1]++] = u;
        } else {
            dest[u] = best_v;
            sibling[u] = child[best_v];
            child[best_v] = u;
            comm_deg[best_v] += d_u;
            st[3]++;
        }
    }
    return i;
}

/* np.isclose(x, y) with its default tolerances, evaluated as numpy does:
 * (|x - y| <= atol + rtol * |y| and y finite) or x == y. */
static inline int is_close(double x, double y) {
    return (fabs(x - y) <= 1e-08 + 1e-05 * fabs(y) && isfinite(y)) || x == y;
}

/* The sweep's setup in one pass over the CSR.  Returns 1 when the graph
 * is symmetric by CSRGraph.is_symmetric's rule (every row strictly
 * increasing; every slot (u, v, w) matched by a slot (v, u, w') with
 * is_close(w, w')), else 0.  Visiting rows in ascending u, the reverse
 * of slot (u, v) must be the next unread slot of row v (cursor[v], a
 * caller-owned array of n): a symmetric row v lists the u that point at
 * it in exactly the order they are visited.  Each slot consumes one cursor
 * step and no cursor passes its row's end, so all m checks passing
 * pairs every slot with its reverse.
 * Each check reads two places no earlier slot predicts (cursor[v], then
 * row v at it), so the pass prefetches both a few slots ahead (1.5x
 * faster on R-MAT scale 17 and 22, docs/PERF.md).
 * deg[u] is u's Newman degree summed in newman_degrees' order (the
 * row's weights in slot order, then each self-loop's weight again);
 * *loop_w is the self-loop weight summed in slot order.  weights may be
 * NULL (every weight 1.0). */
#define AHEAD 16
int64_t rabbit_setup(const int64_t *indptr, const int64_t *indices,
                     const double *weights, int64_t n, int64_t *cursor,
                     double *deg, double *loop_w) {
    const int64_t m = indptr[n];
    int64_t symmetric = 1;
    double loops = 0.0;
    for (int64_t v = 0; v < n; v++)
        cursor[v] = indptr[v];
    for (int64_t u = 0; u < n; u++) {
        const int64_t lo = indptr[u], hi = indptr[u + 1];
        int64_t nloops = 0;
        double d = 0.0;
        for (int64_t k = lo; k < hi; k++) {
            const int64_t v = indices[k];
            const double w = weights ? weights[k] : 1.0;
            d += w;
            nloops += v == u;
            if (symmetric) {
                /* while symmetric, every cursor is at most m */
                if (k + 2 * AHEAD < m)
                    __builtin_prefetch(&cursor[indices[k + 2 * AHEAD]]);
                if (k + AHEAD < m)
                    __builtin_prefetch(&indices[cursor[indices[k + AHEAD]]]);
                const int64_t r = cursor[v]++;
                if ((k > lo && v <= indices[k - 1]) || r >= indptr[v + 1] ||
                    indices[r] != u || (weights && !is_close(w, weights[r])))
                    symmetric = 0;
            }
        }
        for (int64_t k = lo; nloops > 0 && k < hi; k++)
            if (indices[k] == u) {
                const double w = weights ? weights[k] : 1.0;
                d += w;
                loops += w;
                nloops--;
            }
        deg[u] = d;
    }
    *loop_w = loops;
    return symmetric;
}

/* Stable counting sort: out lists 0..n-1 by ascending key, ties in index
 * order, as np.argsort(keys, kind="stable").  count holds nbins
 * counters; returns 0, or -1 if a key lies outside [0, nbins). */
int64_t rabbit_counting_sort(const int64_t *keys, int64_t n, int64_t *count,
                             int64_t nbins, int64_t *out) {
    for (int64_t b = 0; b < nbins; b++)
        count[b] = 0;
    for (int64_t i = 0; i < n; i++) {
        if (keys[i] < 0 || keys[i] >= nbins)
            return -1;
        count[keys[i]]++;
    }
    for (int64_t b = 0, start = 0; b < nbins; b++) {
        const int64_t c = count[b];
        count[b] = start;
        start += c;
    }
    for (int64_t i = 0; i < n; i++)
        out[count[keys[i]]++] = i;
    return 0;
}

/* Algorithm 2's ORDERINGGENERATION: dendrogram.dfs_preorder's walk
 * with the same flat stack and push order (roots in order, each child
 * chain most recent first), then reversed into the post-order visit.
 * Returns the number of vertices visited.  In a forest every push names
 * a new vertex, so the pushes, the stack and out stay within n (stack and
 * out hold n entries): a walk that would push more returns -1 (a cycle or
 * a vertex with two parents), and an id outside [0, n) returns -2 with
 * the id in *bad.  Ids are checked in the Python walk's order, the roots
 * first, so both walks report the same error. */
int64_t rabbit_dfs(const int64_t *child, const int64_t *sibling, int64_t n,
                   const int64_t *roots, int64_t nroots, int64_t *stack,
                   int64_t *out, int64_t *bad) {
    int64_t budget = n - nroots, sp = 0, len = 0;
    for (int64_t i = 0; i < nroots; i++) {
        if (roots[i] < 0 || roots[i] >= n) {
            *bad = roots[i];
            return -2;
        }
    }
    if (budget < 0)
        return -1;
    for (int64_t i = 0; i < nroots; i++)
        stack[sp++] = roots[i];
    while (sp > 0) {
        const int64_t v = stack[--sp];
        out[len++] = v;
        for (int64_t c = child[v]; c != -1; c = sibling[c]) {
            if (c < 0 || c >= n) {
                *bad = c;
                return -2;
            }
            if (--budget < 0)
                return -1;
            stack[sp++] = c;
        }
    }
    for (int64_t i = 0, j = len - 1; i < j; i++, j--) {
        const int64_t t = out[i];
        out[i] = out[j];
        out[j] = t;
    }
    return len;
}

/* Level-synchronous BFS (repro.analysis.traversal): one walk from each
 * seed whose level is still -1, in seed order, over caller-owned level
 * and parent arrays, where level != -1 means visited.  A seed gets level
 * 0 and parent -1.  Level d + 1 is every unvisited out-neighbour of level
 * d, found in frontier order and then slot order, so parent[v] is the
 * first frontier vertex that reaches v; the level is then sorted by id,
 * or by (row length, id) when by_degree.  order (n entries) receives the
 * visits in walk order, buf (n entries) is scratch.  Returns the number
 * of vertices visited and stores the number of non-empty levels, summed
 * over the walks, in *levels.  Seeds and indices must lie in [0, n).
 * Each level is sorted by an LSD radix sort (8-bit digits) or, under
 * SMALL_LEVEL vertices, by insertion: with qsort a road-bfs query took
 * 1.5-2x as long (docs/PERF.md, "Compiled traversal"). */
#define SMALL_LEVEL 33

static inline int64_t row_length(const int64_t *indptr, int64_t v) {
    return indptr[v + 1] - indptr[v];
}

/* Stable: by row length when indptr is given, else by id. */
static void radix_sort(int64_t *a, int64_t *buf, int64_t len,
                       const int64_t *indptr) {
    uint64_t bits = 0;
    for (int64_t i = 0; i < len; i++)
        bits |= (uint64_t)(indptr ? row_length(indptr, a[i]) : a[i]);
    int64_t *src = a, *dst = buf;
    for (int shift = 0; shift < 64 && bits >> shift; shift += 8) {
        int64_t count[256] = {0};
        for (int64_t i = 0; i < len; i++) {
            const int64_t k = indptr ? row_length(indptr, src[i]) : src[i];
            count[(k >> shift) & 255]++;
        }
        for (int64_t d = 0, start = 0; d < 256; d++) {
            const int64_t c = count[d];
            count[d] = start;
            start += c;
        }
        for (int64_t i = 0; i < len; i++) {
            const int64_t k = indptr ? row_length(indptr, src[i]) : src[i];
            dst[count[(k >> shift) & 255]++] = src[i];
        }
        int64_t *t = src;
        src = dst;
        dst = t;
    }
    if (src != a)
        for (int64_t i = 0; i < len; i++)
            a[i] = src[i];
}

static inline int precedes(const int64_t *indptr, int64_t a, int64_t b) {
    if (indptr && row_length(indptr, a) != row_length(indptr, b))
        return row_length(indptr, a) < row_length(indptr, b);
    return a < b;
}

static void sort_level(int64_t *a, int64_t *buf, int64_t len,
                       const int64_t *indptr) {
    if (len < SMALL_LEVEL) {
        for (int64_t i = 1; i < len; i++) {
            const int64_t v = a[i];
            int64_t j = i;
            for (; j > 0 && precedes(indptr, v, a[j - 1]); j--)
                a[j] = a[j - 1];
            a[j] = v;
        }
        return;
    }
    radix_sort(a, buf, len, NULL);
    if (indptr)
        radix_sort(a, buf, len, indptr);
}

int64_t rabbit_bfs(const int64_t *indptr, const int64_t *indices,
                   const int64_t *seeds, int64_t nseeds, int64_t by_degree,
                   int64_t *level, int64_t *parent, int64_t *order,
                   int64_t *buf, int64_t *levels) {
    const int64_t *key = by_degree ? indptr : NULL;
    int64_t len = 0, nlevels = 0;
    for (int64_t i = 0; i < nseeds; i++) {
        const int64_t s = seeds[i];
        if (level[s] != -1)
            continue;
        level[s] = 0;
        parent[s] = -1;
        int64_t lo = len;
        order[len++] = s;
        nlevels++;
        for (int64_t depth = 1; lo < len; depth++) {
            const int64_t hi = len;
            for (int64_t f = lo; f < hi; f++) {
                const int64_t u = order[f];
                for (int64_t k = indptr[u]; k < indptr[u + 1]; k++) {
                    const int64_t t = indices[k];
                    if (level[t] == -1) {
                        level[t] = depth;
                        parent[t] = u;
                        order[len++] = t;
                    }
                }
            }
            if (len > hi) {
                sort_level(order + hi, buf, len - hi, key);
                nlevels++;
            }
            lo = hi;
        }
    }
    *levels = nlevels;
    return len;
}
