/* Compiled aggregation sweep of sequential Rabbit Order (Algorithm 2
 * lines 3-8 with Algorithm 4's lazy aggregation).
 *
 * Per vertex it performs the dict engine's operations in the dict
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
 * Build with -ffp-contract=off: an FMA in delta_q changes the last ulp.
 *
 * All state is caller-owned (numpy arrays); nothing here is global, so
 * concurrent calls on disjoint state are safe. */
#include <math.h>
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
