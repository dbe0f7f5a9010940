"""Reverse-mode automatic differentiation over dense float32 arrays.

Every operation records a tape node holding its parents and a backward
closure. backward() on a scalar walks the tape in reverse topological order,
computes this pass's gradients in a scratch map, then adds them into each
tensor's .grad. Gradients therefore accumulate across backward calls until
the caller zeroes them; tensors that never appear on the tape keep their
.grad untouched.
"""

import numpy as np

from .errors import NotScalar


class TapeNode:
    __slots__ = ("parents", "backward_fn")

    def __init__(self, parents, backward_fn):
        self.parents = parents
        self.backward_fn = backward_fn


class Tensor:
    __slots__ = ("data", "grad", "tape_node")

    def __init__(self, data, tape_node=None):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.tape_node = tape_node

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
            if node.tape_node is not None:
                for parent in node.tape_node.parents:
                    if id(parent) not in seen:
                        stack.append((parent, False))

        local = {id(self): np.ones_like(self.data)}
        by_id = {id(self): self}
        for node in reversed(topo):
            grad = local.get(id(node))
            if grad is None or node.tape_node is None:
                continue
            parent_grads = node.tape_node.backward_fn(grad)
            for parent, pgrad in zip(node.tape_node.parents, parent_grads):
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
