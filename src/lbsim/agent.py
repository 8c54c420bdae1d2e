"""Per-LB soft actor-critic agent.

Each load balancer owns one agent: observation assembly from its local view,
a ring replay buffer, an actor, a critic with a slowly-tracking guiding copy,
and automatic entropy-temperature tuning.  At every step boundary
the agent observes, stores a transition, optionally performs one gradient
update, samples a fresh action, and maps it to per-server speed weights for
the dispatch rule; between boundaries the weights stay frozen while ongoing
counts move per dispatch.

The value target follows the stated critic gradient: y = r + gamma *
(Q_guiding(s', a') - alpha * log pi(a'|s')) with a' freshly sampled from the
current actor.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import nets
from .policies import Policy, rlb_assign

LB_FEATURES = 5
SERVER_FEATURES = 11          # duration stats (5) + TCT stats (5) + ongoing count
SERVER_FEATURES_STRICT = 6    # TCT stats (5) + ongoing count
SPEED_FLOOR = 0.05
# An agent checkpoint is one file: magic, uint32 version, uint32 header
# length, a JSON header, then one little-endian float64 payload.
CHECKPOINT_FILE = "agent.ckpt"
_MAGIC = b"LBCK"
_VERSION = 1

# The actor's log-std output is squashed into this range.  While
# alpha > 0 the entropy term pushes the log-std up, and the critic's action
# signal is too weak to push back (one step's speed ratio moves the
# discounted return by under 0.005), so sigma sits at the ceiling and the
# ceiling, not the temperature, sets the exploration noise.  The ceiling is
# therefore placed at the scale of the target entropy -n: one Gaussian
# dimension meets -1 nat at log sigma ~ -2.42, and -2.0 keeps the widest
# policy within 1 nat above that, so alpha can still fall.
ACTOR_LOG_STD_LO = -3.0
ACTOR_LOG_STD_HI = -2.0


@dataclass
class SacConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    buffer_capacity: int = 3000
    gamma: float = 0.99
    tau: float = 0.005
    hidden: int = 64
    updates_per_step: int = 1
    log_alpha_init: float = math.log(0.2)
    include_duration: bool = True


@dataclass
class Batch:
    state: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_state: np.ndarray
    done: np.ndarray

    def __len__(self) -> int:
        return self.state.shape[0]


class ReplayBuffer:
    """Fixed-capacity ring with uniform seeded sampling and FIFO eviction."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int,
                 rng: np.random.Generator):
        self.capacity = capacity
        self.rng = rng
        self.state = np.zeros((capacity, obs_dim))
        self.action = np.zeros((capacity, act_dim))
        self.reward = np.zeros(capacity)
        self.next_state = np.zeros((capacity, obs_dim))
        self.done = np.zeros(capacity)
        self._idx = 0
        self.size = 0

    def push(self, state: np.ndarray, action: np.ndarray, reward: float,
             next_state: np.ndarray, done: bool) -> None:
        i = self._idx
        self.state[i] = state
        self.action[i] = action
        self.reward[i] = reward
        self.next_state[i] = next_state
        self.done[i] = 1.0 if done else 0.0
        self._idx = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int) -> Batch:
        idx = self.rng.integers(0, self.size, size=batch_size)
        return Batch(*(column[idx] for column in self.columns()))

    def columns(self) -> tuple:
        """The storage arrays, in Batch field order."""
        return self.state, self.action, self.reward, self.next_state, self.done


def observe(view, now: float, include_duration: bool = True) -> np.ndarray:
    """Assemble the observation vector.

    Layout: LB inter-arrival stats (5), then per server the duration stats
    (5, unless strict observability), TCT stats (5) and the local ongoing
    count (1).  Channels with no samples reduce to zeros.
    """
    parts = list(view.interarrival.stats(now))
    for j in range(view.n):
        if include_duration:
            parts += view.durations[j].stats(now)
        parts += view.tcts[j].stats(now)
        parts.append(float(view.ongoing[j]))
    return np.array(parts)


def action_to_speeds(a: np.ndarray) -> np.ndarray:
    """Map a squashed action in (-1,1)^n to positive speed weights.

    s_j = (a_j + 1)/2 + 0.05: strictly positive, monotone and
    order-preserving, so relative action ranking carries into the dispatch
    rule unchanged.
    """
    return (np.asarray(a, dtype=float) + 1.0) / 2.0 + SPEED_FLOOR


class ObservationNormalizer:
    """Streaming standardization with per-server channels pooled.

    The LB block keeps per-feature statistics; the per-server block pools
    statistics across servers per channel.  Pooling is what preserves the
    between-server signal: with per-position statistics a persistently slower
    server normalizes to the same distribution as a fast one, and the shared
    per-server encoder loses the asymmetry it must act on.
    """

    def __init__(self, n_servers: int, srv_dim: int):
        self.n = n_servers
        self.srv_dim = srv_dim
        self.lb_norm = nets.InputNormalizer(LB_FEATURES)
        self.srv_norm = nets.InputNormalizer(srv_dim)

    def update(self, obs: np.ndarray) -> None:
        self.lb_norm.update(obs[:LB_FEATURES])
        rows = obs[LB_FEATURES:].reshape(self.n, self.srv_dim)
        for row in rows:
            self.srv_norm.update(row)

    def normalize(self, batch: np.ndarray) -> np.ndarray:
        """Normalize a (B, obs_dim) batch of observations."""
        lb = self.lb_norm.normalize(batch[:, :LB_FEATURES])
        rows = batch[:, LB_FEATURES:].reshape(-1, self.srv_dim)
        srv = self.srv_norm.normalize(rows).reshape(batch.shape[0], -1)
        return np.concatenate([lb, srv], axis=1)

    def state(self) -> dict:
        return {"lb": self.lb_norm.state(), "server": self.srv_norm.state()}

    def load_state(self, state: dict) -> None:
        self.lb_norm = nets.InputNormalizer.from_state(state["lb"])
        self.srv_norm = nets.InputNormalizer.from_state(state["server"])


class ActorNet:
    """Shared per-server encoder + LB encoder + shared per-server Gaussian head.

    The server encoder and head weights are shared across servers (the
    server axis is folded into the batch axis), so gradients accumulate over
    all servers.
    """

    def __init__(self, n_servers: int, lb_dim: int, srv_dim: int, hidden: int,
                 rng: np.random.Generator, head_out: int = 2, action_input: bool = False):
        self.n = n_servers
        self.lb_dim = lb_dim
        self.srv_dim = srv_dim
        self.hidden = hidden
        self.log_std_bounds = (ACTOR_LOG_STD_LO, ACTOR_LOG_STD_HI)
        head_in = 2 * hidden + (1 if action_input else 0)
        self.lb_enc = nets.DenseNet.build([lb_dim, hidden, hidden], rng)
        self.srv_enc = nets.DenseNet.build([srv_dim, hidden, hidden], rng)
        self.head = nets.DenseNet.build([head_in, hidden, hidden, head_out], rng)
        self.flat, self.grad = nets.pack([self.lb_enc, self.srv_enc, self.head])
        self._batch = 0

    def params(self) -> list:
        """Per-array views of ``flat``, in its order."""
        return self.lb_enc.params() + self.srv_enc.params() + self.head.params()

    def _embed(self, obs: np.ndarray, action: Optional[np.ndarray]) -> np.ndarray:
        B = obs.shape[0]
        x_lb = obs[:, :self.lb_dim]
        x_srv = obs[:, self.lb_dim:].reshape(B * self.n, self.srv_dim)
        e_lb = self.lb_enc.forward(x_lb)
        e_srv = self.srv_enc.forward(x_srv)
        tiled = np.repeat(e_lb, self.n, axis=0)
        cols = [tiled, e_srv]
        if action is not None:
            cols.append(action.reshape(B * self.n, 1))
        self._batch = B
        return np.concatenate(cols, axis=1)

    def _unwind(self, d_head_in: np.ndarray) -> None:
        h = self.hidden
        B = self._batch
        self.srv_enc.backward(d_head_in[:, h:2 * h])
        self.lb_enc.backward(d_head_in[:, :h].reshape(B, self.n, h).sum(axis=1))

    def forward(self, obs: np.ndarray):
        """Per-server Gaussian parameters: (mean, bounded log_std), each (B, n).

        The raw log-std column is tanh-squashed into
        [ACTOR_LOG_STD_LO, ACTOR_LOG_STD_HI].
        """
        out = self.head.forward(self._embed(obs, None))
        B = self._batch
        mean = out[:, 0].reshape(B, self.n)
        squashed = np.tanh(out[:, 1].reshape(B, self.n))
        self._ls_squash = squashed
        lo, hi = self.log_std_bounds
        log_std = lo + 0.5 * (hi - lo) * (squashed + 1.0)
        return mean, log_std

    def backward(self, d_mean: np.ndarray, d_log_std: np.ndarray) -> np.ndarray:
        """Parameter gradients, written to and returned as ``grad``."""
        B = self._batch
        lo, hi = self.log_std_bounds
        d_raw = d_log_std * 0.5 * (hi - lo) * (1.0 - self._ls_squash * self._ls_squash)
        d_out = np.empty((B * self.n, 2))
        d_out[:, 0] = d_mean.reshape(-1)
        d_out[:, 1] = d_raw.reshape(-1)
        d_head_in, _ = self.head.backward(d_out)
        self._unwind(d_head_in)
        return self.grad


class CriticNet(ActorNet):
    """Same encoders plus the per-server action as input; outputs scalar Q.

    Per-server head contributions are summed over servers, which keeps the
    parameter count independent of n and the value consistent under the
    shared-encoder structure.
    """

    def __init__(self, n_servers: int, lb_dim: int, srv_dim: int, hidden: int,
                 rng: np.random.Generator):
        super().__init__(n_servers, lb_dim, srv_dim, hidden, rng,
                         head_out=1, action_input=True)

    def forward(self, obs: np.ndarray, action: np.ndarray):
        out = self.head.forward(self._embed(obs, action))
        return out.reshape(self._batch, self.n).sum(axis=1)

    def backward(self, d_q: np.ndarray) -> np.ndarray:
        """Parameter gradients, written to and returned as ``grad``."""
        d_head_in, _ = self.head.backward(self._d_out(d_q))
        self._unwind(d_head_in[:, :-1])
        return self.grad

    def action_grad(self, d_q: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the action input only; ``grad`` is left as it is."""
        d_head_in, _ = self.head.backward(self._d_out(d_q), param_grads=False)
        return d_head_in[:, -1].reshape(self._batch, self.n)

    def _d_out(self, d_q: np.ndarray) -> np.ndarray:
        return np.repeat(np.asarray(d_q, dtype=float), self.n)[:, None]


class SacAgent:
    """One learning load balancer: local observations in, speed weights out."""

    def __init__(self, n_servers: int, config: SacConfig, seed: int, lb_id: int = 0):
        self.n = n_servers
        self.config = config
        init_rng, self.noise_rng, replay_rng = (
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, lb_id, k)))
            for k in range(3))
        srv_dim = SERVER_FEATURES if config.include_duration else SERVER_FEATURES_STRICT
        self.obs_dim = LB_FEATURES + srv_dim * n_servers
        self.actor = ActorNet(n_servers, LB_FEATURES, srv_dim, config.hidden, init_rng)
        self.critic = CriticNet(n_servers, LB_FEATURES, srv_dim, config.hidden, init_rng)
        # Small policy-head init: the policy starts as a near-constant
        # function of the observation and earns its reactivity through
        # training.  A randomly-initialized head reacts to every noisy
        # feature from step one, and that reactivity feeds the dispatch loop
        # (counts -> action -> counts) as oscillation.
        self.actor.head.layers[-1].w *= 0.01
        # built like the critic, then given its values; the draws it takes
        # from init_rng are the last ones, so no other parameter moves
        self.guiding_critic = CriticNet(n_servers, LB_FEATURES, srv_dim, config.hidden,
                                        init_rng)
        self.guiding_critic.flat[:] = self.critic.flat
        self.log_alpha = np.array([config.log_alpha_init])
        self.normalizer = ObservationNormalizer(n_servers, srv_dim)
        self.buffer = ReplayBuffer(config.buffer_capacity, self.obs_dim, n_servers,
                                   replay_rng)
        lr = config.learning_rate
        self.actor_opt = nets.Adam(self.actor.flat, lr=lr)
        self.critic_opt = nets.Adam(self.critic.flat, lr=lr)
        self.alpha_opt = nets.Adam(self.log_alpha, lr=lr)
        self.target_entropy = -float(n_servers)
        self.prev_obs: Optional[np.ndarray] = None
        self.prev_action: Optional[np.ndarray] = None
        self.total_steps = 0
        self.total_updates = 0
        self.dump_dir: Optional[str] = None

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha[0]))

    # -- environment interface -------------------------------------------

    def step(self, view, now: float):
        """Step-boundary hook: observe, store, train, refresh the action.

        Returns the per-server speed weights.  The transition's reward is
        ``view.reward(now)``, the value the engine records.  The first
        boundary of an episode stores no transition; training starts once
        the buffer holds a full batch.
        """
        obs = self._observe_and_store(view, now, done=False)
        if self.buffer.size >= self.config.batch_size:
            for _ in range(self.config.updates_per_step):
                self.train_step()
        action = self._act(obs)
        self.prev_obs = obs
        self.prev_action = action
        self.total_steps += 1
        return action_to_speeds(action).tolist()

    def episode_end(self, view, now: float) -> None:
        """Close the episode: store the terminal transition (done=True)."""
        self._observe_and_store(view, now, done=True)

    def _observe_and_store(self, view, now: float, done: bool) -> np.ndarray:
        """Observe, update the normalizer, store the pending transition."""
        obs = observe(view, now, self.config.include_duration)
        self.normalizer.update(obs)
        if self.prev_obs is not None:
            self.buffer.push(self.prev_obs, self.prev_action, view.reward(now), obs, done)
            # stored: a checkpoint written if training diverges has nothing pending
            self.prev_obs = self.prev_action = None
        return obs

    def _act(self, obs: np.ndarray) -> np.ndarray:
        mean, log_std = self.actor.forward(self.normalizer.normalize(obs[None, :]))
        noise = self.noise_rng.standard_normal(self.n)
        action, _ = nets.gaussian_head_sample(mean[0], log_std[0], noise)
        return action

    # -- gradient updates --------------------------------------------------
    # The update methods take a batch whose state and next_state are already
    # normalized; train_step normalizes each sampled batch once.

    def train_step(self) -> None:
        batch = self.buffer.sample(self.config.batch_size)
        norm = self.normalizer.normalize
        batch = replace(batch, state=norm(batch.state), next_state=norm(batch.next_state))
        try:
            self.critic_update(batch)
            # The actor and temperature updates do not read the guiding
            # critic, so it can track the critic while both are in cache.
            self.soft_update()
            self.actor_update(batch)
            self.alpha_update(batch)
        except nets.DivergenceError:
            if self.dump_dir is not None:
                self.save_checkpoint(os.path.join(self.dump_dir, "diverged"))
            raise
        self.total_updates += 1

    def critic_targets(self, batch: Batch, noise: Optional[np.ndarray] = None) -> np.ndarray:
        """Bootstrapped targets y = r + gamma*(1-done)*(Q~(s',a') - alpha*logpi)."""
        if noise is None:
            noise = self.noise_rng.standard_normal((len(batch), self.n))
        mean2, log_std2 = self.actor.forward(batch.next_state)
        a2, logp2 = nets.gaussian_head_sample(mean2, log_std2, noise)
        q_next = self.guiding_critic.forward(batch.next_state, a2)
        return batch.reward + self.config.gamma * (1.0 - batch.done) * (
            q_next - self.alpha * logp2)

    def critic_loss_grads(self, batch: Batch, targets: np.ndarray):
        """Squared-error loss against frozen targets and its critic gradients."""
        q = self.critic.forward(batch.state, batch.action)
        err = q - targets
        loss = float(np.mean(err * err))
        return loss, self.critic.backward(2.0 * err / len(batch))

    def critic_update(self, batch: Batch) -> float:
        """One squared-error step of the critic toward the frozen targets."""
        loss, grad = self.critic_loss_grads(batch, self.critic_targets(batch))
        self.critic_opt.step(grad)
        return loss

    def actor_loss_grads(self, batch: Batch, noise: np.ndarray):
        """Loss mean(alpha*logpi - Q) under frozen noise, with actor gradients.

        Gradients flow through the reparameterized sample into the actor;
        the critic only contributes its action-input gradient.
        """
        mean, log_std_raw = self.actor.forward(batch.state)
        a, logp, da_dm, da_dls, dlp_dm, dlp_dls = nets.gaussian_head_grads(
            mean, log_std_raw, noise)
        q = self.critic.forward(batch.state, a)
        alpha = self.alpha
        B = len(batch)
        loss = float(np.mean(alpha * logp - q))
        d_action = self.critic.action_grad(np.full(B, -1.0 / B))
        d_mean = (alpha / B) * dlp_dm + d_action * da_dm
        d_ls = (alpha / B) * dlp_dls + d_action * da_dls
        return loss, self.actor.backward(d_mean, d_ls)

    def actor_update(self, batch: Batch) -> float:
        """Reparameterized policy step minimizing alpha*logpi - Q."""
        noise = self.noise_rng.standard_normal((len(batch), self.n))
        loss, grad = self.actor_loss_grads(batch, noise)
        self.actor_opt.step(grad)
        return loss

    def alpha_update(self, batch: Batch) -> float:
        """Tune the temperature toward the target entropy; returns new alpha."""
        noise = self.noise_rng.standard_normal((len(batch), self.n))
        mean, log_std = self.actor.forward(batch.state)
        _, logp = nets.gaussian_head_sample(mean, log_std, noise)
        self.alpha_opt.step(np.array([-float(np.mean(logp + self.target_entropy))]))
        return self.alpha

    def soft_update(self) -> None:
        """The guiding critic tracks the critic: g <- (1-tau) g + tau main."""
        tau = self.config.tau
        guiding = self.guiding_critic.flat
        guiding *= 1.0 - tau
        guiding += tau * self.critic.flat

    # -- persistence --------------------------------------------------------

    def _optimizers(self) -> dict:
        return {"actor": self.actor_opt, "critic": self.critic_opt, "alpha": self.alpha_opt}

    def _payload(self, replay_rows: int, pending: list) -> list:
        """The checkpoint payload arrays, in file order: the actor, critic and
        guiding-critic parameters, m and v of the actor, critic and
        temperature optimizers, the first ``replay_rows`` rows of every
        replay column, then ``pending``: the observation and action of a
        pending transition, or nothing."""
        arrays = [self.actor.flat, self.critic.flat, self.guiding_critic.flat]
        arrays += [a for opt in self._optimizers().values() for a in (opt.m, opt.v)]
        return arrays + [column[:replay_rows] for column in self.buffer.columns()] + pending

    def save_checkpoint(self, directory: str) -> None:
        pending = self.prev_obs is not None
        header = {
            "n_servers": self.n,
            "obs_dim": self.obs_dim,
            "include_duration": self.config.include_duration,
            "hidden": self.config.hidden,
            "log_alpha": float(self.log_alpha[0]),
            "total_steps": self.total_steps,
            "total_updates": self.total_updates,
            "normalizer": self.normalizer.state(),
            "adam_steps": {name: opt.step_count for name, opt in self._optimizers().items()},
            "replay": {"capacity": self.buffer.capacity, "idx": self.buffer._idx,
                       "size": self.buffer.size},
            "rng": {"noise": self.noise_rng.bit_generator.state,
                    "replay": self.buffer.rng.bit_generator.state},
            "pending": pending,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        arrays = self._payload(self.buffer.size,
                               [self.prev_obs, self.prev_action] if pending else [])
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, CHECKPOINT_FILE), "wb") as fh:
            fh.write(_MAGIC)
            fh.write(np.array([_VERSION, len(blob)], dtype="<u4").tobytes())
            fh.write(blob)
            for a in arrays:  # one at a time: no concatenated copy
                fh.write(np.ascontiguousarray(a, dtype="<f8"))

    def load_checkpoint(self, directory: str) -> None:
        """Restore everything ``save_checkpoint`` wrote, in place.

        Training then continues bit for bit as it would have without the
        save, also from the middle of an episode.
        """
        path = os.path.join(directory, CHECKPOINT_FILE)
        with open(path, "rb") as fh:
            if fh.read(4) != _MAGIC:
                raise ValueError(f"{path}: not an agent checkpoint")
            version, header_len = np.frombuffer(fh.read(8), dtype="<u4")
            if version != _VERSION:
                raise ValueError(f"{path}: unsupported checkpoint version {version}")
            header = json.loads(fh.read(int(header_len)).decode("utf-8"))
            data = fh.read()
        if (header["obs_dim"], header["n_servers"], header["hidden"]) != (
                self.obs_dim, self.n, self.config.hidden):
            raise ValueError(f"{path}: checkpoint shape does not match this agent")
        replay = header["replay"]
        capacity, size, idx = self.buffer.capacity, replay["size"], replay["idx"]
        if replay["capacity"] != capacity:
            raise ValueError(f"{path}: replay capacity {replay['capacity']} does not "
                             f"match this agent's {capacity}")
        if not (0 <= size <= capacity and 0 <= idx < capacity):
            raise ValueError(f"{path}: replay size {size} or index {idx} outside "
                             f"capacity {capacity}")
        pending = [np.empty(self.obs_dim), np.empty(self.n)] if header["pending"] else []
        arrays = self._payload(size, pending)
        expected = sum(a.size for a in arrays)
        if len(data) != 8 * expected:
            raise ValueError(f"{path}: {len(data)} payload bytes, expected {8 * expected}")
        payload = np.frombuffer(data, dtype="<f8")
        start = 0
        for dst in arrays:
            dst[...] = payload[start:start + dst.size].reshape(dst.shape)
            start += dst.size
        for column in self.buffer.columns():
            column[size:] = 0.0
        self.buffer._idx = idx
        self.buffer.size = size
        self.prev_obs, self.prev_action = pending or (None, None)
        for name, opt in self._optimizers().items():
            opt.step_count = header["adam_steps"][name]
        self.noise_rng.bit_generator.state = header["rng"]["noise"]
        self.buffer.rng.bit_generator.state = header["rng"]["replay"]
        self.log_alpha[0] = header["log_alpha"]
        self.total_steps = header["total_steps"]
        self.total_updates = header["total_updates"]
        self.normalizer.load_state(header["normalizer"])


class SacPolicy(Policy):
    """Engine-facing adapter around a SacAgent."""

    name = "rlb-sac"
    wants_observations = True

    def __init__(self, agent: SacAgent):
        self.agent = agent

    def initial_weights(self, topology) -> list:
        # Midpoint speed for every server until the t=0 boundary installs
        # the first sampled action.
        return [0.5 + SPEED_FLOOR] * topology.n_servers

    def select(self, ctx) -> int:
        return rlb_assign(ctx, "random")

    def on_step(self, view, now: float):
        return self.agent.step(view, now)

    def on_episode_end(self, view, now: float) -> None:
        self.agent.episode_end(view, now)
