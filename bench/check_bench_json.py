#!/usr/bin/env python3
"""Gate for the bench JSON envelopes (DESIGN.md §4).

    python3 bench/check_bench_json.py [--batch=N] [--mix=NAME]
        [--engines=a,b,...] FILE...

Each FILE must parse as {"bench", "config", "rows"}; the checks that follow
are chosen by its "bench" field. The optional arguments repeat the
bench_workload flags the run was given, so the gate can hold the run to
them: --batch=N requires both dispatch widths {1, N} for every config,
--mix requires every row to carry that mix (a ycsb-e run must also be
scan-dominant in its steady phases), --engines requires exactly that
engine set. Exits nonzero on the first failed assertion.
"""
import argparse
import json


def check_envelope(d):
    assert {'bench', 'config', 'rows'} <= d.keys(), sorted(d.keys())
    assert isinstance(d['rows'], list), type(d['rows'])


# bench_bst carries the §15 rows: every tree must publish seq-bulk
# (sorted-run insert_all) and scan (VLX range) cells alongside the scalar
# streams, all with real throughput.
def check_bst(rows, args):
    assert rows, 'no rows'
    for r in rows:
        assert {'structure', 'stream', 'threads', 'update_pct',
                'key_range', 'ops_per_sec'} <= r.keys(), r
        assert r['ops_per_sec'] > 0, ('zero-throughput cell', r)
    streams = {r['stream'] for r in rows}
    assert streams >= {'uniform', 'seq', 'seq-bulk', 'scan'}, streams
    for s in ('seq-bulk', 'scan'):
        trees = {r['structure'] for r in rows if r['stream'] == s}
        assert trees >= {'bst', 'patricia', 'chromatic'}, (s, trees)
    for r in rows:
        if r['stream'] == 'scan':
            assert r['update_pct'] == 0, r


# The consolidated workload envelope (DESIGN.md §13) is the contract every
# perf PR reads: schema keys present, every phase of every regime ran ops,
# and every config ran at each dispatch width the run asked for.
def check_workload(rows, args):
    assert rows, 'no rows'
    need = {'engine', 'dist', 'mix', 'phase', 'phase_stream', 'phase_mix',
            'threads', 'seconds', 'ops_per_sec', 'ops', 'lat_ns', 'keys',
            'batch', 'batched'}
    for r in rows:
        missing = need - r.keys()
        assert not missing, (missing, r)
        assert sum(r['ops'].values()) > 0, ('zero-op phase', r)
        assert r['batched'] == (r['batch'] > 1), r
        for t in ('read', 'insert', 'erase', 'scan'):
            assert {'samples', 'p50', 'p95', 'p99', 'p999',
                    'saturated'} <= r['lat_ns'][t].keys(), r['lat_ns'][t]
    assert {r['phase'] for r in rows} >= {'grow', 'steady', 'churn'}
    assert {r['dist'] for r in rows} >= {'uniform', 'zipfian', 'hotset'}
    # A ycsb-e steady phase must actually scan, and its scan percentiles
    # must be a real distribution (monotone p50 <= p95 <= p99 <= p999).
    escan = [r for r in rows
             if r['mix'] == 'ycsb-e' and r['phase'] == 'steady']
    assert escan, 'no ycsb-e steady rows'
    for r in escan:
        assert r['ops']['scan'] > 0, ('ycsb-e phase without scans', r)
        s = r['lat_ns']['scan']
        assert s['samples'] > 0, r
        assert s['p50'] <= s['p95'] <= s['p99'] <= s['p999'], s
    if args.engines is not None:
        engines = {r['engine'] for r in rows}
        assert engines == set(args.engines.split(',')), engines
    else:
        assert any(r['engine'].startswith('sharded+') for r in rows)
    if args.mix is not None:
        assert {r['mix'] for r in rows} == {args.mix}
        if args.mix == 'ycsb-e':
            for r in rows:
                if r['phase'] != 'steady':
                    continue
                total = sum(r['ops'].values())
                assert total > 0 and r['ops']['scan'] > total // 2, r['ops']
    else:
        assert len({r['mix'] for r in rows}) >= 2
    if args.batch > 1:
        # --batch=N ran a batched sweep after the scalar one: every config
        # must appear at both dispatch widths, batched under its own flag.
        assert {r['batch'] for r in rows} == {1, args.batch}, \
            sorted({r['batch'] for r in rows})
        assert any(r['batched'] for r in rows)
        assert any(not r['batched'] for r in rows)
        key = ('engine', 'dist', 'mix', 'phase', 'threads')
        configs = {tuple(r[k] for k in key) for r in rows}
        for c in configs:
            widths = {r['batch'] for r in rows
                      if tuple(r[k] for k in key) == c}
            assert widths == {1, args.batch}, (c, widths)
    else:
        assert {r['batch'] for r in rows} == {1}, 'batched rows without --batch'


# The gate per "bench" field; bench_reclaim's rows need only parse.
CHECKS = {
    'bench_bst': check_bst,
    'bench_workload': check_workload,
    'bench_reclaim': lambda rows, args: None,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--batch', type=int, default=1)
    ap.add_argument('--mix')
    ap.add_argument('--engines')
    ap.add_argument('files', nargs='+')
    args = ap.parse_args()
    for path in args.files:
        with open(path) as f:
            d = json.load(f)
        check_envelope(d)
        assert d['bench'] in CHECKS, ('no gate for bench', d['bench'])
        CHECKS[d['bench']](d['rows'], args)
        print(f"{path} OK: {d['bench']}, {len(d['rows'])} rows")


if __name__ == '__main__':
    main()
