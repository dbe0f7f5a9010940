"""Reverse-mode automatic differentiation over dense float32 arrays.

Every operation's output Tensor holds its parents and a backward closure;
a leaf holds no parents and no closure. backward() on a scalar walks the
tape in reverse topological order, computes this pass's gradients in a
scratch map, then adds them into each tensor's .grad. Gradients therefore
accumulate across backward calls until the caller zeroes them; tensors
that never appear on the tape keep their .grad untouched.
"""

import numpy as np

from .errors import NotScalar


class Tensor:
    __slots__ = ("data", "grad", "parents", "backward_fn")

    def __init__(self, data, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        if self.data.size != 1:
            raise NotScalar("backward requires a scalar, got shape %s" % (self.shape,))
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        local = {id(self): np.ones_like(self.data)}
        by_id = {id(self): self}
        for node in reversed(topo):
            grad = local.get(id(node))
            if grad is None or node.backward_fn is None:
                continue
            parent_grads = node.backward_fn(grad)
            for parent, pgrad in zip(node.parents, parent_grads):
                if pgrad is None:
                    continue
                pid = id(parent)
                if pid in local:
                    local[pid] = local[pid] + pgrad
                else:
                    local[pid] = pgrad
                    by_id[pid] = parent

        for tid, grad in local.items():
            tensor = by_id[tid]
            tensor.grad = grad if tensor.grad is None else tensor.grad + grad

    def __repr__(self):
        return "Tensor(shape=%s)" % (self.shape,)


class Parameter(Tensor):
    """A trainable leaf tensor holding a float32 copy of its input. It carries
    no name: a model's named_parameters() names it by its path in the model."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(np.array(data, dtype=np.float32))

    def __repr__(self):
        return "Parameter(shape=%s)" % (self.shape,)
