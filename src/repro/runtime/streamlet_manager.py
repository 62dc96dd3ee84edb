"""The Streamlet Manager (section 3.3.3): execution-plane instance control.

Creates streamlet instances for the coordination plane, drawing stateless
ones from per-definition pools (section 3.3.4) and always constructing
stateful ones fresh.  Pooling can be disabled wholesale for the ablation
benchmark.
"""

from __future__ import annotations

from repro.mcl import astnodes as ast
from repro.runtime.directory import StreamletDirectory
from repro.runtime.pool import InstancePool
from repro.runtime.streamlet import Streamlet


class StreamletManager:
    """Instance lifecycle: acquire on deployment, release on teardown."""

    def __init__(
        self,
        directory: StreamletDirectory,
        *,
        pooling: bool = True,
        max_idle_per_definition: int = 32,
        telemetry=None,
    ):
        self._directory = directory
        self._pooling = pooling
        self._max_idle = max_idle_per_definition
        self._pools: dict[str, InstancePool] = {}
        # acquire() is deploy-time, not per-message, so counting through
        # the telemetry facade here is free
        self._telemetry = telemetry
        self.created = 0

    @property
    def directory(self) -> StreamletDirectory:
        return self._directory

    def _pool_for(self, definition: ast.StreamletDef) -> InstancePool:
        pool = self._pools.get(definition.name)
        if pool is None:
            factory = self._directory.factory_for(definition)

            def build(instance_id: str, _definition=definition, _factory=factory) -> Streamlet:
                self.created += 1
                return _factory(instance_id, _definition)

            pool = InstancePool(build, max_idle=self._max_idle)
            self._pools[definition.name] = pool
        return pool

    def acquire(self, instance_id: str, definition: ast.StreamletDef) -> Streamlet:
        """An executable instance for ``definition``, pooled if stateless."""
        if self._pooling and definition.kind is ast.StreamletKind.STATELESS:
            pool = self._pool_for(definition)
            hits_before = pool.hits
            instance = pool.acquire(instance_id)
            if self._telemetry is not None:
                self._telemetry.streamlet_acquired(
                    definition.name, pooled=pool.hits > hits_before
                )
            return instance
        self.created += 1
        if self._telemetry is not None:
            self._telemetry.streamlet_acquired(definition.name, pooled=False)
        factory = self._directory.factory_for(definition)
        return factory(instance_id, definition)

    def load(self, definition: ast.StreamletDef) -> None:
        """Bring ``definition``'s code into the process without creating an
        instance (:meth:`Streamlet.load`); a factory that is not a
        streamlet class has nothing to load ahead of its call."""
        factory = self._directory.factory_for(definition)
        if isinstance(factory, type) and issubclass(factory, Streamlet):
            factory.load()

    def release(self, instance: Streamlet) -> None:
        """Return an instance; stateless ones go back to their pool."""
        if self._pooling and instance.is_stateless:
            self._pool_for(instance.definition).release(instance)
