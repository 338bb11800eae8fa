"""Unit tests for Directory and AstroConfig."""

import pytest

from repro.core.config import AstroConfig
from repro.core.directory import Directory, assemble_directory
from repro.core.system import Astro1System, Astro2System


class TestDirectory:
    def test_shard_registration_and_lookup(self):
        directory = Directory()
        directory.register_shard(0, (0, 1, 2, 3))
        directory.register_shard(1, (4, 5, 6, 7))
        assert directory.members(0) == (0, 1, 2, 3)
        assert directory.shard_of_replica(5) == 1
        assert directory.shard_ids == [0, 1]
        assert directory.faulty_bound(0) == 1

    def test_duplicate_shard_rejected(self):
        directory = Directory()
        directory.register_shard(0, (0, 1))
        with pytest.raises(ValueError):
            directory.register_shard(0, (2, 3))

    def test_replica_in_two_shards_rejected(self):
        directory = Directory()
        directory.register_shard(0, (0, 1))
        with pytest.raises(ValueError):
            directory.register_shard(1, (1, 2))

    def test_empty_shard_rejected(self):
        directory = Directory()
        with pytest.raises(ValueError):
            directory.register_shard(0, ())

    def test_client_registration(self):
        directory = Directory()
        directory.register_shard(0, (0, 1, 2, 3))
        directory.register_client("alice", 2)
        assert directory.rep_of("alice") == 2
        assert directory.shard_of_client("alice") == 0
        assert directory.knows_client("alice")
        assert not directory.knows_client("bob")
        assert directory.clients == ["alice"]

    def test_client_needs_valid_representative(self):
        directory = Directory()
        directory.register_shard(0, (0, 1))
        with pytest.raises(ValueError):
            directory.register_client("alice", 99)

    def test_clients_of_shard(self):
        directory = Directory()
        directory.register_shard(0, (0, 1))
        directory.register_shard(1, (2, 3))
        directory.register_client("a", 0)
        directory.register_client("b", 2)
        assert directory.clients_of_shard(0) == ["a"]
        assert directory.clients_of_shard(1) == ["b"]


class TestAssembleDirectory:
    """The one client → representative rule every backend calls."""

    CLIENTS = [f"c{i:02d}" for i in range(13)]  # not a multiple of 2, 3 or 4

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_default_rule_deals_round_robin(self, num_shards):
        per_shard = 4
        directory = assemble_directory(self.CLIENTS, per_shard, num_shards)
        assert directory.shard_ids == list(range(num_shards))
        for shard in range(num_shards):
            assert directory.members(shard) == tuple(
                range(shard * per_shard, (shard + 1) * per_shard)
            )
        # Registration order is the repr-sorted order (state fingerprints
        # and golden histories depend on it).
        assert directory.clients == sorted(self.CLIENTS, key=repr)
        for position, client in enumerate(directory.clients):
            shard = position % num_shards
            assert directory.shard_of_client(client) == shard
            slot = (position // num_shards) % per_shard
            assert directory.rep_of(client) == shard * per_shard + slot

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_shard_assignment_pins_the_shard(self, num_shards):
        pinned = {
            client: (index * 7) % num_shards
            for index, client in enumerate(self.CLIENTS)
        }
        directory = assemble_directory(
            self.CLIENTS, 4, num_shards, shard_assignment=pinned
        )
        for position, client in enumerate(sorted(self.CLIENTS, key=repr)):
            assert directory.shard_of_client(client) == pinned[client]
            members = directory.members(pinned[client])
            assert directory.rep_of(client) == members[
                (position // num_shards) % 4
            ]

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_rep_assignment_wins_outright(self, num_shards):
        total = 4 * num_shards
        reps = {
            client: (index * 5) % total
            for index, client in enumerate(self.CLIENTS)
        }
        # shard_assignment is ignored once the representative is given.
        directory = assemble_directory(
            self.CLIENTS, 4, num_shards,
            rep_assignment=reps,
            shard_assignment={client: 0 for client in self.CLIENTS},
        )
        assert directory.rep_map == reps

    def test_rep_assignment_must_name_a_replica(self):
        with pytest.raises(ValueError, match="not a replica"):
            assemble_directory(["a"], 4, rep_assignment={"a": 4})

    def test_astro1_is_astro2_with_one_shard(self):
        """Astro I's ``position % n`` is the ``num_shards = 1`` case, so
        both systems — and a live cluster's every process — derive one
        map."""
        genesis = {client: 10 for client in self.CLIENTS}
        expected = assemble_directory(genesis, 4).rep_map
        assert expected == {
            client: position % 4
            for position, client in enumerate(sorted(genesis, key=repr))
        }
        astro1 = Astro1System(num_replicas=4, genesis=genesis)
        astro2 = Astro2System(num_replicas=4, num_shards=1, genesis=genesis)
        assert astro1.directory.rep_map == expected
        assert astro2.directory.rep_map == expected
        assert list(astro1.directory.rep_map) == list(astro2.directory.rep_map)

    def test_systems_pass_their_assignments_through(self):
        genesis = {client: 10 for client in self.CLIENTS}
        reps = {client: 3 for client in genesis}
        assert Astro1System(
            num_replicas=4, genesis=genesis, rep_assignment=reps
        ).directory.rep_map == reps
        shards = {client: 1 for client in genesis}
        sharded = Astro2System(
            num_replicas=4, num_shards=2, genesis=genesis,
            shard_assignment=shards,
        )
        assert sharded.directory.rep_map == assemble_directory(
            genesis, 4, 2, shard_assignment=shards
        ).rep_map
        assert set(sharded.directory.rep_map.values()) <= {4, 5, 6, 7}


class TestAstroConfig:
    def test_defaults_derive_f(self):
        config = AstroConfig(num_replicas=10)
        assert config.f == 3
        assert config.quorum == 7

    def test_paper_batch_size_default(self):
        assert AstroConfig().batch_size == 256

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            AstroConfig(num_replicas=3, f=1)
        with pytest.raises(ValueError):
            AstroConfig(num_shards=0)
        with pytest.raises(ValueError):
            AstroConfig(batch_size=0)

    def test_explicit_f_respected(self):
        config = AstroConfig(num_replicas=10, f=2)
        assert config.f == 2
        assert config.quorum == 5


class TestBftConfig:
    def test_defaults(self):
        from repro.consensus.config import BftConfig

        config = BftConfig(num_replicas=7)
        assert config.f == 2
        assert config.quorum == 5
        assert config.pipeline_depth >= 1

    def test_invalid_pipeline(self):
        from repro.consensus.config import BftConfig

        with pytest.raises(ValueError):
            BftConfig(num_replicas=4, pipeline_depth=0)
