"""Operation traits: reusable verification/metadata mixins for op classes."""

from __future__ import annotations

from repro.ir.exceptions import VerifyException
from repro.ir.operation import Operation


class OpTrait:
    """Base class for traits; traits are stateless and verified per-op."""

    @classmethod
    def verify(cls, op: Operation) -> None:
        """Check this trait's invariant on the given op."""


class IsTerminator(OpTrait):
    """The operation terminates its block (must be the last op)."""

    @classmethod
    def verify(cls, op: Operation) -> None:
        if op.parent is not None and op.parent.last_op is not op:
            raise VerifyException(
                f"terminator '{op.name}' must be the last operation in its block"
            )


class Pure(OpTrait):
    """The operation has no side effects and may be freely removed/duplicated."""


class HasParent(OpTrait):
    """The operation must be directly nested inside one of the given op types.

    Use :func:`has_parent` to create a specialised subclass.
    """

    parent_types: tuple[type, ...] = ()

    @classmethod
    def verify(cls, op: Operation) -> None:
        if not cls.parent_types:
            return
        parent = op.parent_op()
        if parent is None or not isinstance(parent, cls.parent_types):
            names = ", ".join(t.name for t in cls.parent_types)
            raise VerifyException(
                f"'{op.name}' expects its parent to be one of: {names}"
            )


def has_parent(*parent_types: type) -> type[HasParent]:
    """Create a :class:`HasParent` trait bound to specific parent op types."""

    class _BoundHasParent(HasParent):
        pass

    _BoundHasParent.parent_types = parent_types
    return _BoundHasParent
