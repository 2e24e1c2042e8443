"""In-memory prefill images: prefill once per batch, restore the rest.

The device a run starts its replay on depends only on what it was built
from and how full it was filled: the effective config, the FTL and its
keyword arguments, the prefill fraction and the checker level.  The
workload, seed, warm-up and host model reach only the replay.  So when
an inline :func:`repro.api.run_many` batch holds several runs with the
same *prefill key*, the first of them prefills as usual and leaves a
:func:`~repro.persist.driver.capture_state` snapshot behind, and the
others :func:`~repro.persist.driver.restore_state` it in place of their
own prefill -- the same byte-exact state transfer that backs checkpoint
resume.  The image also carries the warm lookup tables and reliability
memos, which are pure functions of the device state, so a restored run
replays as fast as a prefilled one.

Images live in memory for one batch, never touch the disk, and are
dropped after their last use.  The batch installs the table with
:func:`prefill_images` and :func:`repro.api.run_spec` looks it up with
:func:`get_prefill_images`, the way live progress reaches it; a run
outside a batch (or in a spawned worker) never sees one.
"""

from __future__ import annotations

import pickle
from collections import Counter
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.ssd.controller import SSDSimulation


class _Image:
    """One prefilled device: its pickled state plus its warm memos.

    The persistence layer is imported here, on first use, so a batch
    that makes no image never loads it.
    """

    __slots__ = ("state", "tables", "memos")

    def __init__(self, sim: "SSDSimulation") -> None:
        from repro.persist.driver import capture_state

        controller = sim.controller
        # pickled, so neither the source run nor any restored run can
        # alias (and later mutate) the image's containers
        self.state = pickle.dumps(
            capture_state(sim, {}), protocol=pickle.HIGHEST_PROTOCOL
        )
        self.tables = [
            chip.fast_tables.memo_snapshot()
            if chip.fast_tables is not None
            else None
            for chip in controller.chips
        ]
        self.memos = controller.reliability.memo_snapshot()

    def restore(self, sim: "SSDSimulation") -> None:
        from repro.persist.driver import restore_state

        checker = sim.checker
        # the checker state names the run that captured the image; keep
        # this run's own report context
        context = checker.context if checker is not None else None
        restore_state(sim, pickle.loads(self.state))
        if checker is not None:
            checker.context = context
        controller = sim.controller
        for chip, tables in zip(controller.chips, self.tables):
            if tables is not None:
                chip.fast_tables.adopt_memos(tables)
        controller.reliability.adopt_memos(self.memos)


class PrefillImages:
    """The prefill images of one batch, keyed by prefill key.

    ``uses`` counts, per key, the runs of the batch that will ask for
    it; only keys used at least twice get an image.
    """

    def __init__(self, uses: Dict[Hashable, int]) -> None:
        self._uses = {key: count for key, count in uses.items() if count >= 2}
        self._images: Dict[Hashable, _Image] = {}

    def prefill(self, sim: "SSDSimulation", fraction: float, key) -> None:
        """Prefill ``sim`` to ``fraction``, or restore the image of
        ``key`` when an earlier run of the batch left one."""
        remaining = self._uses.get(key)
        if remaining is None:
            sim.prefill(fraction)
            return
        image = self._images.get(key)
        if image is None:
            sim.prefill(fraction)
            image = self._images[key] = _Image(sim)
        else:
            image.restore(sim)
        if remaining > 1:
            self._uses[key] = remaining - 1
        else:
            del self._uses[key], self._images[key]


_images: Optional[PrefillImages] = None


def get_prefill_images() -> Optional[PrefillImages]:
    """The prefill images of the batch running in this process, if any."""
    return _images


@contextmanager
def prefill_images(keys: Iterable[Optional[Hashable]]) -> Iterator[None]:
    """Share prefill images among the runs of one inline batch.

    ``keys`` holds the prefill key of every run in the batch, ``None``
    for a run that must prefill for real.
    """
    global _images
    previous = _images
    _images = PrefillImages(Counter(key for key in keys if key is not None))
    try:
        yield
    finally:
        _images = previous
