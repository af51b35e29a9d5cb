"""Open-set transmitter authorization over embedding fingerprints.

Authorized transmitters are represented purely by their indexed embedding
samples in a multi-table random-hyperplane hash index; a query is accepted
exactly when its approximate nearest neighbor belongs to a currently
authorized transmitter. Adding a transmitter appends its samples to the
index, removing one flips a registry status; neither touches a model.
"""

from .authorize import (AuthDecision, Evidence, Reason, Verdict, authorize,
                        authorize_batch, enroll, revoke)
from .bench import (ExperimentConfig, MetricsReport, compute_metrics,
                    run_add_auth_sweep, run_grid_sweep, time_block)
from .costmodel import (CostParams, measured_scan_fraction,
                        optimal_hash_size, predict_indexing_cost,
                        predict_inference_cost)
from .data import (Dataset, FingerprintRecord, SplitResult, SyntheticSpec,
                   TransmitterRegistry, TxStatus, generate_synthetic,
                   split_dataset)
from .dimreduce import (Projector, fit_pca, fit_random_projection,
                        load_projector, project, save_projector)
from .errors import (DimensionMismatchError, DuplicateRecordError,
                     LshAuthError, NotRegisteredError, ParseError,
                     ValidationError)
from .formats import load_dataset, load_registry, save_dataset, save_registry
from .lsh import BucketStats, LshIndex, build_index, load_index, save_index
from .oracle import exact_nn, oracle_authorize

__version__ = "0.1.0"
