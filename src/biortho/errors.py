"""Exception types raised by the diagnostics."""


class BiorthoError(Exception):
    """Base class for every error this package raises deliberately."""


class EigenIterationError(BiorthoError):
    """The eigenvalue iteration did not converge."""


class ClusteringError(BiorthoError):
    """An eigenvalue cluster came out internally inconsistent.

    Typical cause: a kernel dimension larger than the cluster's own
    cardinality, which happens when coalescing eigenvalues are split
    across clusters.  Usually fixed by raising cluster_eps.
    """


class RootSpaceMismatchError(BiorthoError):
    """Stabilized root-space dimension disagrees with the cluster size; names the cutoff and staircase."""

    def __init__(self, eigenvalue, stabilized_dim, algebraic_multiplicity, cutoff, staircase):
        self.eigenvalue = eigenvalue
        self.stabilized_dim = stabilized_dim
        self.algebraic_multiplicity = algebraic_multiplicity
        self.cutoff = cutoff
        self.staircase = tuple(staircase)
        super().__init__(
            "root space at {:.6g}{:+.6g}j stabilized at dimension {} but the "
            "cluster has multiplicity {} (staircase {} at rank cutoff {:.3e}); "
            "rank or cluster tolerances are inconsistent for this matrix".format(
                eigenvalue.real, eigenvalue.imag,
                stabilized_dim, algebraic_multiplicity, list(self.staircase), cutoff,
            )
        )


class NotDiagonalizableError(BiorthoError):
    """A defective cluster blocks construction of an eigenvector basis."""

    def __init__(self, cluster_indices):
        self.cluster_indices = tuple(cluster_indices)
        super().__init__(
            "matrix is not diagonalizable: cluster(s) %s have geometric "
            "multiplicity below algebraic multiplicity"
            % (list(self.cluster_indices),)
        )


class SkewLinkFailureError(BiorthoError):
    """A sector's cross-Gram matrix is numerically singular."""

    def __init__(self, cluster_index, self_orthogonality):
        self.cluster_index = cluster_index
        self.self_orthogonality = float(self_orthogonality)
        super().__init__(
            "left and right kernels of cluster %d fail to pair up "
            "(self-orthogonality measure %.3e); no biorthonormal system "
            "exists at this tolerance" % (cluster_index, self_orthogonality)
        )


class EigenvectorSpanError(BiorthoError):
    """The eigenvectors of a given spectrum span fewer dimensions than the space at the stacked rank cutoff."""

    def __init__(self, span, ambient_dim, cutoff):
        self.span = span
        self.ambient_dim = ambient_dim
        self.cutoff = float(cutoff)
        super().__init__(
            "eigenvectors span %d of %d dimensions at rank cutoff %.3e; no "
            "biorthonormal system exists at this tolerance" % (span, ambient_dim, cutoff)
        )


class IncompleteSystemError(BiorthoError):
    """Expansion was requested from a system that does not span the space."""


class MatrixParseError(BiorthoError):
    """A matrix file could not be parsed.  Carries line and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = " (line %d%s)" % (line, "" if column is None else ", column %d" % column)
        super().__init__(message + where)


class StudyError(BiorthoError):
    """A truncation study failed at one of its sizes."""

    def __init__(self, size, message):
        self.size = size
        super().__init__("size %d: %s" % (size, message))
