"""Tests for the compile-on-install dispatch layer (repro.cache.dispatch).

Two properties anchor the layer:

* the interned-id table is a bijection — every dense id maps back to a
  unique block (and a unique address), and foreign blocks are rejected;
* link patching is residency: after *any* sequence of installs,
  evictions and flushes, every registered link slot holds exactly the
  walk table of the region resident at its target — never a dangling
  table (``DispatchTable.check_invariants``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.codecache import BoundedCodeCache, CodeCache
from repro.cache.dispatch import BlockInterner, DispatchTable
from repro.errors import CacheError
from repro.execution.engine import ExecutionEngine
from repro.metrics.linking import _direct_exit_targets
from repro.system.simulator import simulate
from repro.workloads import build_benchmark
from repro.workloads.micro import build_micro


def _decider_for(program):
    """A real pre-bound decision source, as the fused loop builds one."""
    engine = ExecutionEngine(program, seed=0)
    stack, ctx = engine._push_state()
    memo = {}

    def decider_for(block):
        decide = memo.get(block)
        if decide is None:
            decide = engine._decider_for(block, stack, ctx)
            memo[block] = decide
        return decide

    return decider_for


@pytest.fixture(scope="module")
def chain_program():
    return build_micro("linked_chain", iterations=60)


@pytest.fixture(scope="module")
def chain_regions(chain_program):
    """Every region NET selects on the chain — one per segment loop,
    richly linked (each exits to the next segment's entry)."""
    result = simulate(chain_program, "net", seed=1)
    regions = result.regions
    assert len(regions) >= 10
    return regions


class TestInterner:
    @given(bid=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, bid):
        program = _INTERN_PROGRAM
        interner = BlockInterner(program)
        bid %= interner.size
        block = interner.block_of(bid)
        assert interner.id_of(block) == bid

    def test_ids_map_to_unique_addresses(self):
        interner = BlockInterner(_INTERN_PROGRAM)
        addresses = {
            interner.block_of(bid).address for bid in range(interner.size)
        }
        assert len(addresses) == interner.size

    def test_foreign_block_rejected(self, chain_program):
        interner = BlockInterner(_INTERN_PROGRAM)
        with pytest.raises(CacheError, match="not interned"):
            interner.id_of(chain_program.entry)


_INTERN_PROGRAM = build_benchmark("gzip", scale=0.05)


class TestLinkInvariants:
    @given(
        picks=st.lists(st.integers(0, 9), min_size=1, max_size=40),
        policy=st.sampled_from(("flush", "fifo")),
        capacity=st.integers(60, 800),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_dangling_links_after_any_sequence(
        self, chain_program, chain_regions, picks, policy, capacity
    ):
        cache = BoundedCodeCache(capacity, policy)
        dispatch = DispatchTable(chain_program, _decider_for(chain_program))
        cache.bind_dispatch(dispatch)
        for index in picks:
            region = chain_regions[index % len(chain_regions)]
            if cache.contains_entry(region.entry):
                continue
            cache.insert(region)
            dispatch.check_invariants()
        # Drain the cache one victim at a time: every retire must keep
        # the slots consistent, and a fully-retired dispatch holds no
        # tables and no registered sites at all.
        for victim in list(cache.resident_regions):
            cache._retire_region(victim, policy)
            dispatch.check_invariants()
        assert all(table is None for table in dispatch.tables_by_entry)
        assert not dispatch._link_sites

    def test_patch_and_unpatch_one_link(self, chain_program, chain_regions):
        # Find a linked pair: source's direct exit targets dest's entry.
        source = dest = None
        for a in chain_regions:
            for b in chain_regions:
                if b is not a and b.entry in _direct_exit_targets(a):
                    source, dest = a, b
                    break
            if source is not None:
                break
        assert source is not None, "chain workload must produce a link"

        cache = CodeCache()
        dispatch = DispatchTable(chain_program, _decider_for(chain_program))
        cache.bind_dispatch(dispatch)
        cache.insert(source)
        source_table = dispatch.tables_by_entry[source.entry.block_id]
        dest_id = dest.entry.block_id

        def slots_for(table, target_id):
            return [
                site.container[site.key]
                for tid, site in table.sites
                if tid == target_id
            ]

        assert slots_for(source_table, dest_id) == [None]
        dest_table = dispatch.install(dest)
        assert slots_for(source_table, dest_id) == [dest_table]
        dispatch.retire(dest)
        assert slots_for(source_table, dest_id) == [None]
        repatched = dispatch.install(dest)
        assert repatched is not dest_table
        assert slots_for(source_table, dest_id) == [repatched]
        dispatch.check_invariants()

    def test_retire_is_idempotent_and_order_safe(self, chain_program,
                                                 chain_regions):
        dispatch = DispatchTable(chain_program, _decider_for(chain_program))
        region = chain_regions[0]
        dispatch.install(region)
        dispatch.retire(region)
        dispatch.retire(region)  # second retire is a no-op
        dispatch.check_invariants()
        assert dispatch.tables_by_entry[region.entry.block_id] is None


class TestWalkTables:
    def test_static_runs_are_sound(self, chain_program, chain_regions):
        dispatch = DispatchTable(chain_program, _decider_for(chain_program))
        for region in chain_regions:
            if not region.is_trace:
                continue
            table = dispatch.compile(region)
            n = table.path_len
            assert table.run_len[n - 1] == 0  # last position never advances
            for i in range(n):
                span = table.run_len[i]
                assert 0 <= span <= n - 1 - i
                if span:
                    decide = table.deciders[i]
                    assert isinstance(decide, tuple)
                    assert decide[1] is table.path[i + 1]
                    assert table.run_insts[i] == sum(
                        table.counts[i:i + span]
                    )

    def test_table_for_falls_back_to_fresh_compile(self, chain_program,
                                                   chain_regions):
        dispatch = DispatchTable(chain_program, _decider_for(chain_program))
        region = chain_regions[0]
        fresh = dispatch.table_for(region)  # not resident: compiled ad hoc
        assert fresh.region is region
        assert dispatch.tables_by_entry[region.entry.block_id] is None
        installed = dispatch.install(region)
        assert dispatch.table_for(region) is installed

    def test_deciders_are_shared_with_the_source(self, chain_program,
                                                 chain_regions):
        decider_for = _decider_for(chain_program)
        dispatch = DispatchTable(chain_program, decider_for)
        region = next(r for r in chain_regions if r.is_trace)
        table = dispatch.compile(region)
        for position, block in enumerate(table.path):
            assert table.deciders[position] is decider_for(block)
