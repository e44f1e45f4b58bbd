"""Op-construction contracts: tags and roots are validated when the
descriptor is built, not deep inside the engine's matching tables, so
a bad tag or root fails at the line that built the op."""

import numpy as np
import pytest

from repro.vmpi.comm import Comm
from repro.vmpi.ops import (
    Collective,
    Exchange,
    Irecv,
    Isend,
    Phantom,
    Recv,
    Send,
    Sendrecv,
)

TAGGED_OPS = [
    lambda tag: Send(dest=0, payload=1.0, tag=tag),
    lambda tag: Recv(source=0, tag=tag),
    lambda tag: Isend(dest=0, payload=1.0, tag=tag),
    lambda tag: Irecv(source=0, tag=tag),
    lambda tag: Sendrecv(dest=0, payload=1.0, source=0, tag=tag),
    lambda tag: Exchange(sends=((0, 1.0),), recvs=(0,), tag=tag),
]


@pytest.mark.parametrize("build", TAGGED_OPS)
def test_negative_tag_rejected(build):
    with pytest.raises(ValueError):
        build(-1)


@pytest.mark.parametrize("build", TAGGED_OPS)
@pytest.mark.parametrize("tag", [1.5, "7", None, True])
def test_non_int_tag_rejected(build, tag):
    with pytest.raises(TypeError):
        build(tag)


@pytest.mark.parametrize("build", TAGGED_OPS)
def test_valid_tags_accepted(build):
    assert build(0).tag == 0
    assert build(2 ** 20).tag == 2 ** 20


ROOTED = ["bcast", "reduce", "gather", "scatter"]


@pytest.mark.parametrize("kind", ROOTED)
def test_negative_root_rejected(kind):
    with pytest.raises(ValueError):
        Collective(kind=kind, root=-1)


@pytest.mark.parametrize("kind", ROOTED)
@pytest.mark.parametrize("root", [0.0, "0", None, False])
def test_non_int_root_rejected(kind, root):
    with pytest.raises(TypeError):
        Collective(kind=kind, root=root)


@pytest.mark.parametrize("kind", ROOTED)
def test_valid_root_accepted(kind):
    assert Collective(kind=kind, root=3).root == 3


def test_unknown_collective_kind_still_rejected():
    with pytest.raises(ValueError):
        Collective(kind="alltoallw")


def test_exchange_shape_and_nbytes_derived_at_construction():
    op = Exchange(sends=((1, np.zeros(4)), (2, Phantom(10.0))), recvs=(2, 1),
                  label="halo")
    assert op.nbytes == 42.0
    assert op.shape == ((2, 1), "halo", ((1, 32.0), (2, 10.0)))
    # payload values are not part of the shape, nor of op equality
    other = Exchange(sends=((1, np.ones(4)), (2, Phantom(10.0))),
                     recvs=(2, 1), label="halo")
    assert other.shape == op.shape
    assert Exchange(sends=((1, 1.0),), recvs=()) == \
        Exchange(sends=((1, 1.0),), recvs=())


def test_exchange_unsizable_payload_fails_at_construction():
    with pytest.raises(TypeError):
        Exchange(sends=((0, object()),), recvs=())


def test_comm_exchange_peers_checked_and_normalised():
    comm = Comm(0, 1, (0, 1, 2))
    op = comm.exchange([(np.int64(2), 1.0)], [np.int64(0)])
    assert op.sends == ((2, 1.0),) and op.recvs == (0,)
    assert type(op.sends[0][0]) is int and type(op.recvs[0]) is int
    with pytest.raises(ValueError, match="rank 3 outside"):
        comm.exchange([(0, 1.0), (3, 1.0)], [0])
    with pytest.raises(ValueError, match="rank -1 outside"):
        comm.exchange([], [1, -1])
