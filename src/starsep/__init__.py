"""starsep: certified treewidth bounds for graphs excluding short holes,
diamonds, three-path configurations, even wheels, and a fixed clique.

The pipeline detects the forbidden structures, builds canonical star
separations and central bags around wheel centers, produces balanced
separators with per-instance size ledgers, and assembles validated tree
decompositions.  Every guarantee is re-verified at runtime and recorded
in a certificate rather than trusted.
"""

from .errors import (CapacityError, HypothesisViolation, InputError,
                     NotAMember, SamplingError, StarsepError)
from .graph_core import (Graph, WeightFn, bit_list, bits, components,
                         from_dimacs, from_graph6, graph_from_json_obj,
                         graph_to_json_obj, load_graph_file,
                         mask_of, neighborhood, popcount, to_graph6)
from .detectors import (ObstructionReport, WheelWitness, class_membership,
                        classify_wheels, clique_number, detect_fixed,
                        detect_prism, detect_pyramid, detect_theta,
                        holes, hub_set, make_wheel_witness,
                        verify_obstruction)
from .cutsets import (AtomDecomposition, clique_cutset_atoms,
                      find_clique_cutset)
from .separations import (OrderDigest, Separation, canonical_separation,
                          classify_balanced, leq_a_order, nearly_noncrossing,
                          validate_separation)
from .central_bag import (CentralBag, SmoothCollection, central_bag,
                          grow_separator, is_balanced_separator,
                          revised_collection, validate_smooth)
from .hub_division import (DegeneracyPartition, HubDivision,
                           check_no_wheels_in_bag, degeneracy_partition,
                           hub_division)
from .separator_engine import (AuxGraph, SeparatorCertificate, aux_graph,
                               balanced_vertex_separator,
                               central_bag_separator, main_separator,
                               ramsey_vs_4, verify_certificate,
                               wheelfree_separator)
from .treewidth import (CertifyResult, TreeDecomposition, build_td, certify,
                        exact_treewidth, validate_td)
from .generators import (SampleResult, make, sample_class,
                         sample_cutset_free_member)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
